// Package treeleader is a cruzvet fixture for the group-leader code
// shapes hierarchical (two-level tree) coordination introduced: relay
// spans that must survive leader-promotion error paths. The bug shapes
// here are the ones the analyzers must keep catching in internal/core's
// leader paths.
package treeleader

import (
	"errors"

	"cruz/internal/trace"
)

// member is a stand-in for one group member's state.
type member struct {
	name string
	live bool
}

var errDead = errors.New("member dead")

// promoteLeak is the leader-promotion bug shape: the relay span is
// begun before the liveness scan, and the no-live-member error path
// returns without ending it — the span leaks across the promotion
// return path and the trace export diverges from reality.
func promoteLeak(tr *trace.Tracer, members []member) (string, error) {
	sp := tr.Begin("node", "coord", "relay.promote") // want `not ended on every return path`
	for _, m := range members {
		if m.live {
			sp.End()
			return m.name, nil
		}
	}
	return "", errDead // forgot sp.End()
}

// promoteOK ends the span on both the promoted and the error path.
func promoteOK(tr *trace.Tracer, members []member) (string, error) {
	sp := tr.Begin("node", "coord", "relay.promote")
	defer sp.End()
	for _, m := range members {
		if m.live {
			return m.name, nil
		}
	}
	return "", errDead
}

// relayLeak is the leader's per-member fan-out loop: the member span
// is abandoned when the member errors out mid-relay.
func relayLeak(tr *trace.Tracer, members []member) {
	for _, m := range members {
		sp := tr.Begin("node", "coord", "relay.member") // want `not ended on every return path`
		if !m.live {
			continue // forgot sp.End()
		}
		sp.End()
	}
}

// aggregateDiscard drops the aggregation span on the floor.
func aggregateDiscard(tr *trace.Tracer) {
	tr.Begin("node", "coord", "relay.aggregate") // want `span discarded`
}
