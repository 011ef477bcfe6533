package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cruz/internal/sim"
)

func TestRateMeterSteadyStream(t *testing.T) {
	m := NewRateMeter(10 * sim.Millisecond)
	// 1250 bytes every 10 µs = 1 Gb/s.
	for i := 0; i < 2000; i++ {
		m.Record(sim.Time(i)*sim.Time(10*sim.Microsecond), 1250)
	}
	now := sim.Time(1999 * 10 * int64(sim.Microsecond))
	rate := m.RateMbps(now)
	if math.Abs(rate-1000) > 10 {
		t.Fatalf("rate = %.1f Mb/s, want ~1000", rate)
	}
}

func TestRateMeterDropsToZero(t *testing.T) {
	m := NewRateMeter(10 * sim.Millisecond)
	m.Record(sim.Time(0), 100000)
	// 20 ms later the window is empty.
	if rate := m.RateMbps(sim.Time(20 * sim.Millisecond)); rate != 0 {
		t.Fatalf("rate after quiet period = %f, want 0", rate)
	}
}

func TestRateMeterWindowEdges(t *testing.T) {
	m := NewRateMeter(10 * sim.Millisecond)
	m.Record(sim.Time(0), 1000)
	m.Record(sim.Time(5*sim.Millisecond), 1000)
	// At t=10ms, the event at t=0 is exactly at the cutoff: excluded.
	rate := m.RateMbps(sim.Time(10 * sim.Millisecond))
	want := 1000.0 * 8 / 1e6 / 0.01
	if math.Abs(rate-want) > 1e-9 {
		t.Fatalf("rate = %f, want %f", rate, want)
	}
}

func TestSeriesShiftAndFormat(t *testing.T) {
	var s Series
	s.Name = "rate"
	s.Add(sim.Time(100*sim.Millisecond), 900)
	s.Add(sim.Time(110*sim.Millisecond), 0)
	sh := s.Shifted(sim.Time(100 * sim.Millisecond))
	if sh.Points[0].T != 0 || sh.Points[1].T != sim.Time(10*sim.Millisecond) {
		t.Fatalf("shifted points: %+v", sh.Points)
	}
	out := sh.Format()
	if !strings.Contains(out, "rate") || !strings.Contains(out, "900.00") {
		t.Fatalf("format output:\n%s", out)
	}
	min, max := s.MinMax()
	if min != 0 || max != 900 {
		t.Fatalf("minmax = %f,%f", min, max)
	}
}

func TestSummaryStats(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %f", got)
	}
	if got := s.StdDev(); got != 2 {
		t.Fatalf("stddev = %f", got)
	}
}

func TestSummaryDegenerate(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty summary not all-zero")
	}
	s.Add(3)
	if s.StdDev() != 0 {
		t.Fatal("single-sample stddev not 0")
	}
	s.AddDuration(7 * sim.Millisecond)
	if s.Mean() != 5 || s.StdDev() != 2 {
		t.Fatalf("mean=%f stddev=%f", s.Mean(), s.StdDev())
	}
}

// Property: the meter's windowed rate times the window never exceeds
// the bytes recorded in all.
func TestPropertyRateMeterConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewRateMeter(10 * sim.Millisecond)
		var total uint64
		now := sim.Time(0)
		for i, sz := range sizes {
			now = sim.Time(i) * sim.Time(sim.Millisecond)
			m.Record(now, int(sz))
			total += uint64(sz)
		}
		windowBits := m.RateMbps(now) * 1e6 * 0.01
		return windowBits <= float64(total)*8+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
