package metrics

import (
	"testing"

	"cruz/internal/sim"
)

func TestEmptySeriesMinMax(t *testing.T) {
	var s Series
	min, max := s.MinMax()
	if min != 0 || max != 0 {
		t.Fatalf("empty MinMax = %v,%v, want 0,0", min, max)
	}
}

// The window is half-open (now-window, now]: an event exactly at
// now-window is pruned, one tick later it still counts.
func TestRateMeterWindowBoundaryExact(t *testing.T) {
	w := 10 * sim.Millisecond
	now := sim.Time(20 * sim.Millisecond)

	m := NewRateMeter(w)
	m.Record(now.Add(-w), 1000) // exactly at the cutoff
	if rate := m.RateMbps(now); rate != 0 {
		t.Fatalf("event at now-window counted: rate = %v", rate)
	}

	m = NewRateMeter(w)
	m.Record(now.Add(-w)+1, 1000) // one nanosecond inside
	if rate := m.RateMbps(now); rate == 0 {
		t.Fatal("event at now-window+1ns pruned")
	}
}
