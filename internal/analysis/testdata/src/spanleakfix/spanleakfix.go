// Package spanleakfix is a cruzvet fixture for the spanleak analyzer:
// spans must be ended on every return path, discarding one is always a
// leak, and spans that escape into event-driven code are exempt.
package spanleakfix

import (
	"cruz/internal/sim"
	"cruz/internal/trace"
)

func leakOnEarlyReturn(tr *trace.Tracer, fail bool) {
	sp := tr.Begin("n", "c", "op") // want `not ended on every return path`
	if fail {
		return
	}
	sp.End()
}

func leakInOneBranch(tr *trace.Tracer, mode int) {
	sp := tr.Begin("n", "c", "op") // want `not ended on every return path`
	switch mode {
	case 0:
		sp.End()
	case 1:
		sp.End()
	default:
		// forgotten
	}
}

func leakPerIteration(tr *trace.Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := tr.Begin("n", "c", "iter") // want `not ended on every return path`
		if i%2 == 0 {
			continue
		}
		sp.End()
	}
}

func discarded(tr *trace.Tracer) {
	tr.Begin("n", "c", "op")     // want `span discarded`
	_ = tr.Begin("n", "c", "op") // want `span discarded`
}

// A defer registered in one branch ends the span on that branch's paths
// only.
func leakDeferInOneBranch(tr *trace.Tracer, keep bool) {
	sp := tr.Begin("n", "c", "op") // want `not ended on every return path`
	if keep {
		defer sp.End()
	}
}

func okDefer(tr *trace.Tracer, fail bool) {
	sp := tr.Begin("n", "c", "op")
	defer sp.End()
	if fail {
		return
	}
}

func okEveryPath(tr *trace.Tracer, fail bool) (int, error) {
	sp := tr.Begin("n", "c", "op")
	if fail {
		sp.End()
		return 0, nil
	}
	sp.End()
	return 1, nil
}

func okLoopBreak(tr *trace.Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := tr.Begin("n", "c", "iter")
		if i == 3 {
			sp.End()
			break
		}
		sp.End()
	}
}

func okPanicPath(tr *trace.Tracer, fail bool) {
	sp := tr.Begin("n", "c", "op")
	if fail {
		panic("dead path needs no End")
	}
	sp.End()
}

// Spans that escape are event-driven: a later event ends them, which
// path analysis inside one function cannot (and must not) judge.
func okEscapesToEvent(e *sim.Engine, tr *trace.Tracer) {
	sp := tr.Begin("n", "c", "op")
	e.Schedule(sim.Millisecond, func() { sp.End() })
}

type holder struct{ sp trace.Span }

func okEscapesToField(h *holder, tr *trace.Tracer) {
	h.sp = tr.Begin("n", "c", "op")
}

func okReturned(tr *trace.Tracer) trace.Span {
	sp := tr.Begin("n", "c", "op")
	return sp
}

// A leak inside a function literal is still a leak.
func leakInClosure(tr *trace.Tracer) func(bool) {
	return func(fail bool) {
		sp := tr.Begin("n", "c", "op") // want `not ended on every return path`
		if fail {
			return
		}
		sp.End()
	}
}
