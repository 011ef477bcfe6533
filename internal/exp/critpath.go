package exp

import (
	"fmt"
	"math"

	"cruz/internal/trace"
	"cruz/internal/trace/critpath"
)

// CritPathResult is one traced kill-and-recover run reassembled into
// causal span trees, with the critical-path decomposition of both the
// replicated checkpoint that preceded the failure and the automatic
// recovery that followed it.
type CritPathResult struct {
	// Checkpoint and Recovery are the latency decompositions of the two
	// distributed operations; the matching trees hold the full cross-node
	// span structure.
	Checkpoint     *critpath.Report
	Recovery       *critpath.Report
	CheckpointTree *critpath.Tree
	RecoveryTree   *critpath.Tree
	// MTTRMs is the recovery result's own MTTR — the number the
	// recovery report's phase sum is validated against (within 1%).
	MTTRMs float64
	// Dump is the flight-recorder snapshot taken at lease expiry: the
	// event window that led up to the failure declaration.
	Dump *trace.FlightDump
}

// CritPath runs the traced kill-and-recover experiment: a replicated
// checkpoint on a 4-node ring with a spare, a node failure, and the
// automatic recovery — all under full tracing — then reassembles the
// causal span trees and extracts the critical path of each operation.
// The result is self-checked: both trees must span the coordinator and
// at least two agent nodes, the recovery decomposition must sum to the
// reported MTTR within 1%, and the lease-expiry flight dump must exist.
func CritPath(scale float64) (*CritPathResult, error) {
	const n = 4
	r, err := recoveryCluster(n, scale, RecoveryConfig{Replicas: 1, Spares: 1}, true)
	if err != nil {
		return nil, err
	}
	res, err := r.Fail(1)
	if err != nil {
		return nil, fmt.Errorf("exp: critpath recovery: %w", err)
	}

	if n := r.Cluster.Trace().Dropped(); n > 0 {
		return nil, fmt.Errorf("exp: critpath trace ring overflowed (%d events dropped); raise TraceCapacity", n)
	}
	trees := critpath.BuildTrees(r.Cluster.Trace().Events())
	out := &CritPathResult{
		CheckpointTree: critpath.FindRoot(trees, "checkpoint"),
		RecoveryTree:   critpath.FindRoot(trees, "recovery"),
		MTTRMs:         res.MTTR.Milliseconds(),
	}
	if out.CheckpointTree == nil || out.RecoveryTree == nil {
		return nil, fmt.Errorf("exp: critpath trees missing (checkpoint=%v recovery=%v)",
			out.CheckpointTree != nil, out.RecoveryTree != nil)
	}
	for _, tr := range []*critpath.Tree{out.CheckpointTree, out.RecoveryTree} {
		if len(tr.Nodes) < 3 {
			return nil, fmt.Errorf("exp: critpath op %d spans only %v — not a distributed tree", tr.Op, tr.Nodes)
		}
		if len(tr.Orphans) > 0 {
			return nil, fmt.Errorf("exp: critpath op %d has %d orphan spans", tr.Op, len(tr.Orphans))
		}
	}
	out.Checkpoint = critpath.Analyze(out.CheckpointTree)
	out.Recovery = critpath.Analyze(out.RecoveryTree)
	if out.Checkpoint == nil || out.Recovery == nil {
		return nil, fmt.Errorf("exp: critpath analysis failed (open root span)")
	}
	var phaseSum float64
	for _, s := range out.Recovery.Phases {
		phaseSum += s.Ms
	}
	if diff := math.Abs(phaseSum - out.MTTRMs); diff > 0.01*out.MTTRMs {
		return nil, fmt.Errorf("exp: critpath recovery phases sum %.3f ms vs MTTR %.3f ms (diff %.3f > 1%%)",
			phaseSum, out.MTTRMs, diff)
	}
	for _, d := range r.Cluster.FlightRecorder().FlightDumps() {
		if d.Trigger == "lease.expiry" {
			out.Dump = d
			break
		}
	}
	if out.Dump == nil {
		return nil, fmt.Errorf("exp: critpath run produced no lease-expiry flight dump")
	}
	if err := r.Check(); err != nil {
		return nil, fmt.Errorf("exp: critpath: %w", err)
	}
	return out, nil
}
