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
	// Dropped counts events the trace ring overwrote. A nonzero value
	// means the phase report saw a truncated run; consumers that need the
	// full window (exports, critical paths) should fail loudly on it.
	Dropped uint64
}

// traceHealth is the end-of-run trace check shared by the traced
// experiments: every span must be closed (a leak means a protocol path
// lost an End) and the ring-drop count is surfaced to the caller.
func traceHealth(cl *cruz.Cluster) (uint64, error) {
	tr := cl.Trace()
	if tr == nil {
		return 0, nil
	}
	if n := tr.OpenSpans(); n != 0 {
		return tr.Dropped(), fmt.Errorf("exp: %d trace spans left open: %v", n, tr.OpenSpanNames())
	}
	return tr.Dropped(), nil
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
	r, err := slmRing(cc, slmConfig(cc.Nodes, scale), nil)
	if err != nil {
		return nil, err
	}
	for k := 0; k < ckpts; k++ {
		if _, err := r.cl.Checkpoint(r.job, opts(k)); err != nil {
			return nil, fmt.Errorf("exp: phases n=%d ckpt %d: %w", cc.Nodes, k, err)
		}
		r.cl.Run(500 * cruz.Millisecond)
	}
	if err := checkWorkers(r.workers); err != nil {
		return nil, err
	}
	dropped, err := traceHealth(r.cl)
	if err != nil {
		return nil, err
	}
	events := r.cl.Trace().Events()
	return &PhasesResult{
		Report:  trace.PhaseBreakdown(events),
		Events:  events,
		Dropped: dropped,
	}, nil
}
