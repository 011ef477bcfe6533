package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/trace"
)

// PhasesResult decomposes coordinated checkpoint latency into the named
// protocol phases (quiesce, drain, capture, write, commit) recorded by
// the tracing subsystem. This is the breakdown behind E1–E4: it shows
// where the latency of Fig. 5 actually goes (the paper: checkpoint
// latency "is dominated by the time to write this state to disk").
type PhasesResult struct {
	Report *trace.PhaseReport
	// Events is the full trace, for optional Chrome-trace export.
	Events []trace.Event
}

// Phases runs ckpts coordinated checkpoints of the slm benchmark on n
// traced nodes, twice, and returns the per-phase latency report of each
// run: classic blocking checkpoints, then the content-addressed pipeline
// — deduplicated incremental checkpoints with the pipelined save path
// and auto-compaction, so the hash, dedup and compact phases appear
// alongside the classic lifecycle.
func Phases(n, ckpts int, scale float64) (classic, dedup *PhasesResult, err error) {
	classic, err = tracedCheckpoints(cruz.Config{Nodes: n, Trace: true}, ckpts, scale,
		func(int) cruz.CheckpointOptions { return cruz.CheckpointOptions{} })
	if err != nil {
		return nil, nil, err
	}
	dedup, err = tracedCheckpoints(cruz.Config{Nodes: n, Trace: true, AutoCompact: max(ckpts-1, 2)}, ckpts, scale,
		func(k int) cruz.CheckpointOptions {
			return cruz.CheckpointOptions{Dedup: true, Pipeline: true, Incremental: k > 0}
		})
	return classic, dedup, err
}

// tracedCheckpoints takes ckpts checkpoints, 500 ms apart, of the slm
// ring on the traced cluster cc and decomposes their latency by phase.
func tracedCheckpoints(cc cruz.Config, ckpts int, scale float64, opts func(k int) cruz.CheckpointOptions) (*PhasesResult, error) {
	r, err := slmRing(cc, slmConfig(cc.Nodes, scale))
	if err != nil {
		return nil, err
	}
	for k := 0; k < ckpts; k++ {
		if _, err := r.Cluster.Checkpoint(r.job, opts(k)); err != nil {
			return nil, fmt.Errorf("exp: phases n=%d ckpt %d: %w", cc.Nodes, k, err)
		}
		r.Cluster.Run(500 * cruz.Millisecond)
	}
	tr := r.Cluster.Trace()
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("exp: phases trace ring overflowed (%d events dropped): the phase report is truncated; raise TraceCapacity", n)
	}
	events := tr.Events()
	res := &PhasesResult{Report: trace.PhaseBreakdown(events), Events: events}
	if err := r.Check(); err != nil {
		return nil, fmt.Errorf("exp: phases n=%d: %w", cc.Nodes, err)
	}
	return res, nil
}
