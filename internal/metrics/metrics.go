// Package metrics provides the measurement instruments the paper's
// evaluation uses: sliding-window throughput meters (Fig. 6 plots the
// receive rate "averaged ... during a sliding window of 10 ms duration"),
// time series, and simple summary statistics with standard deviations
// (the error bars of Fig. 5).
package metrics

import (
	"fmt"
	"math"
	"strings"

	"cruz/internal/sim"
)

// RateMeter measures throughput over a trailing window.
type RateMeter struct {
	window sim.Duration
	events []rateEvent
}

type rateEvent struct {
	at    sim.Time
	bytes int
}

// NewRateMeter returns a meter with the given trailing window.
func NewRateMeter(window sim.Duration) *RateMeter {
	if window <= 0 {
		window = 10 * sim.Millisecond
	}
	return &RateMeter{window: window}
}

// Record notes that n bytes arrived at time t. Calls must be in
// nondecreasing time order.
func (m *RateMeter) Record(t sim.Time, n int) {
	m.events = append(m.events, rateEvent{at: t, bytes: n})
	m.prune(t)
}

func (m *RateMeter) prune(now sim.Time) {
	cutoff := now.Add(-m.window)
	i := 0
	for i < len(m.events) && m.events[i].at <= cutoff {
		i++
	}
	if i > 0 {
		m.events = m.events[i:]
	}
}

// RateMbps returns the average rate over the window ending at now, in
// megabits per second.
func (m *RateMeter) RateMbps(now sim.Time) float64 {
	m.prune(now)
	var bytes int
	for _, e := range m.events {
		bytes += e.bytes
	}
	return float64(bytes) * 8 / 1e6 / m.window.Seconds()
}

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is a named time series, used to regenerate the paper's figures
// as data tables.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Shifted returns a copy with all timestamps offset by -origin, so plots
// can place an event (e.g. checkpoint start) at t=0 as Fig. 6 does.
func (s *Series) Shifted(origin sim.Time) *Series {
	out := &Series{Name: s.Name, Points: make([]Point, len(s.Points))}
	for i, p := range s.Points {
		out.Points[i] = Point{T: p.T - origin, V: p.V}
	}
	return out
}

// Format renders the series as aligned "time value" rows, with time in
// milliseconds.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n#   t(ms)    value\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%9.2f %9.2f\n", sim.Duration(p.T).Milliseconds(), p.V)
	}
	return b.String()
}

// MinMax returns the extreme values of the series.
func (s *Series) MinMax() (min, max float64) {
	if len(s.Points) == 0 {
		return 0, 0
	}
	min, max = s.Points[0].V, s.Points[0].V
	for _, p := range s.Points {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	return min, max
}

// Summary accumulates samples and reports mean/deviation, mirroring the
// paper's "error bars represent the standard deviation of the
// measurements".
type Summary struct {
	samples []float64
}

// Add appends a sample.
func (s *Summary) Add(v float64) { s.samples = append(s.samples, v) }

// AddDuration appends a duration sample in milliseconds.
func (s *Summary) AddDuration(d sim.Duration) { s.Add(d.Milliseconds()) }

// Mean returns the sample mean.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}
