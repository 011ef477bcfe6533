package main

import (
	"io"
	"math"
	"testing"
)

// TestSmoke runs every workload at -quick size through the whole
// measurement: warm-up and measured passes (which must agree on the
// virtual clock), the traced pass, the layer replay and the tree twin.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := full.quick()
		t.Run(w.name, func(t *testing.T) {
			res := measure(&w, runConfig{seed: 1, passes: 1, layers: true})
			if !res.correct() {
				t.Fatalf("failed=%d errors=%v", res.Failed, res.Errors)
			}
			if want := (warmupPasses + 2) * w.ops(); res.Attempted != want {
				t.Errorf("attempted %d operations, want %d", res.Attempted, want)
			}
			for _, d := range endToEnd {
				s, ok := res.EndToEnd[d.Name]
				if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
					t.Errorf("%s = %v (present %v): end-to-end metrics must be finite and never 0", d.Name, s.Value, ok)
				}
			}
			for _, d := range perLayer {
				s, ok := res.PerLayer[d.Name]
				if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s = %v (present %v)", d.Name, s.Value, ok)
				}
			}
		})
	}
}

func TestContractMatchesProgram(t *testing.T) {
	bj, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if err := bj.check(); err != nil {
		t.Fatal(err)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{2, 1}, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{5, 4, 3, 2, 1}, []float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := []float64{q1, q2, q3}; got[0] != c.want[0] || got[1] != c.want[1] || got[2] != c.want[2] {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAgree(t *testing.T) {
	mk := func(hostS, latency float64) *report {
		res := &runResult{Seed: 1, EndToEnd: map[string]stat{}}
		for _, d := range endToEnd {
			res.EndToEnd[d.Name] = stat{Value: 1, Q1: 1, Q3: 1}
		}
		res.EndToEnd["host_s_per_pass"] = stat{Value: hostS, Q1: hostS, Q3: hostS}
		res.EndToEnd["ckpt_latency_vms"] = stat{Value: latency, Q1: latency, Q3: latency}
		return &report{Workloads: map[string]*runResult{"bulk4": res}}
	}
	for _, c := range []struct {
		name string
		b    *report
		want int
	}{
		{"identical", mk(1, 1), 0},
		{"host faster", mk(0.5, 1), 0},
		{"host slower within bound", mk(1.05, 1), 0},
		{"host slower beyond bound", mk(1.5, 1), 1},
		{"virtual clock moved at all", mk(1, 1.0000001), 1},
	} {
		if got := agreeReports(mk(1, 1), c.b, io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
