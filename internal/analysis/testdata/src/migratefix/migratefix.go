// Package migratefix is a cruzvet fixture for the code shapes live
// migration introduced: per-round phase spans that must survive the
// round loop's abort/convergence early returns. The bug shapes here are
// the ones the analyzers must keep catching in internal/core's migrate
// paths.
package migratefix

import (
	"cruz/internal/sim"
	"cruz/internal/trace"
)

// round is a stand-in for one pre-copy round's accounting.
type round struct {
	pages   int
	aborted bool
}

// roundLeak is the round-loop bug shape: the per-round span is begun
// before the abort check, and the aborted path returns without ending
// it — exactly the early return a mid-migration abort takes.
func roundLeak(tr *trace.Tracer, r round) int {
	sp := tr.Begin("node", "phase", "migrate-round") // want `not ended on every return path`
	if r.aborted {
		return 0 // forgot sp.End()
	}
	sp.End()
	return r.pages
}

// convergeLeak is the convergence loop: a non-converged round continues
// to the next iteration and abandons its span.
func convergeLeak(tr *trace.Tracer, rounds []round, threshold int) {
	for _, r := range rounds {
		sp := tr.Begin("node", "phase", "migrate-round") // want `not ended on every return path`
		if r.pages > threshold {
			continue // forgot sp.End()
		}
		sp.End()
	}
}

// takeoverDiscard drops the takeover span on the floor.
func takeoverDiscard(tr *trace.Tracer) {
	tr.Begin("node", "phase", "takeover") // want `span discarded`
}

// roundOK ends the span on both the aborted and the streamed path.
func roundOK(tr *trace.Tracer, r round) int {
	sp := tr.Begin("node", "phase", "migrate-round")
	defer sp.End()
	if r.aborted {
		return 0
	}
	return r.pages
}

// okEscapesToAdoption is the streaming shape: the round span outlives
// the function and is ended by the destination's adoption ack, an event
// path analysis inside one function must not judge.
func okEscapesToAdoption(e *sim.Engine, tr *trace.Tracer) {
	sp := tr.Begin("node", "phase", "migrate-stream")
	e.Schedule(sim.Millisecond, func() { sp.End() })
}
