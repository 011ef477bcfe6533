package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cruz"
)

const (
	warmupPasses = 2 // the first passes of a process grow the heap and run 1.5–3× slow
	minPasses    = 3
	// extraSetups is how many more times each measured pass sets a
	// cluster up and throws it away: set-up is 50 ms, a fifth of it garbage
	// collection, and its median needs more samples than there are passes.
	extraSetups = 2
)

// stat is one reported metric: the value (a median when N > 1), and the
// quartiles of the samples behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func summarize(d metricDef, samples []float64) stat {
	q1, q2, q3 := quartiles(samples)
	return stat{Value: q2, Unit: d.Unit, Clock: d.Clock, N: len(samples), Q1: q1, Q3: q3}
}

// runResult is one workload's run: what the result line and -out carry.
type runResult struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Passes    int             `json:"passes"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// runConfig is how one workload is measured.
type runConfig struct {
	seed     int64
	seconds  float64 // measure until this much host time has passed …
	passes   int     // … or, when > 0, exactly this many passes
	layers   bool    // add the traced pass, the tree twin and the layer replay
	traceout string  // directory for Chrome-trace JSON of the traced pass
}

// measure runs one workload: warm-up passes, measured passes on fresh
// clusters with the same inputs, then (cfg.layers) one traced pass with
// its replay. Any failed operation or failed self-check lands in the
// result and makes it incorrect.
func measure(w *workload, cfg runConfig) *runResult {
	res := &runResult{Workload: w.name, Seed: cfg.seed, EndToEnd: map[string]stat{}}
	in := w.generate(cfg.seed)

	var measured []*passResult
	var virt map[string]float64 // of the first pass; every later one must match
	var setups []float64
	start := time.Now()
	for i := 0; ; i++ {
		n := i - warmupPasses
		if cfg.passes > 0 && n >= cfg.passes {
			break
		}
		if cfg.passes <= 0 && n >= minPasses && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if n == 0 {
			start = time.Now()
		}
		for j := 0; n >= 0 && j < extraSetups; j++ {
			if p, err := deploy(w, in, cruz.Config{}); err == nil {
				setups = append(setups, p.res.setup.Seconds())
			}
			runtime.GC()
		}
		p, err := runPass(w, in, cruz.Config{})
		r := &p.res
		res.Attempted += r.attempted
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("pass %d: %v", i, err))
			return res
		}
		// Nondeterminism detector: the virtual clock and the event count
		// depend on the inputs alone, warm-up passes included.
		if virt == nil {
			virt = virtualMetrics(r)
		} else if diff := diffVirtual(virt, virtualMetrics(r)); diff != "" {
			res.Errors = append(res.Errors, fmt.Sprintf("pass %d is not deterministic: %s", i, diff))
		}
		if c := spanCoverage(r); c < 0.95 {
			res.Errors = append(res.Errors, fmt.Sprintf("pass %d: harness spans cover %.1f%% of the measured host time", i, 100*c))
		}
		if n >= 0 {
			measured = append(measured, r)
		}
		// Drop the cluster before the next pass so each starts from the
		// same heap.
		p.cl = nil
		runtime.GC()
	}
	res.Passes = len(measured)

	host := map[string][]float64{"setup_s": setups}
	for _, r := range measured {
		for name, v := range hostMetrics(r) {
			host[name] = append(host[name], v)
		}
	}
	for _, d := range endToEnd {
		if d.Clock == "v" {
			res.EndToEnd[d.Name] = stat{Value: virt[d.Name], Unit: d.Unit, Clock: "v", N: len(measured), Q1: virt[d.Name], Q3: virt[d.Name]}
		} else {
			res.EndToEnd[d.Name] = summarize(d, host[d.Name])
		}
	}
	if cfg.layers {
		measureLayers(w, in, cfg, res, measured, virt)
	}
	return res
}

// diffVirtual names the first virtual-clock quantity on which two passes
// differ, or returns "".
func diffVirtual(a, b map[string]float64) string {
	names := []string{eventsKey}
	for _, d := range endToEnd {
		if d.Clock == "v" {
			names = append(names, d.Name)
		}
	}
	for _, name := range names {
		if a[name] != b[name] {
			return fmt.Sprintf("%s %v vs %v", name, a[name], b[name])
		}
	}
	return ""
}

// measureLayers adds the per-layer metrics: one traced pass for the
// counters and phases, the layer replay on its cluster, the tree twin,
// and the facade self-times from the untraced measured passes.
func measureLayers(w *workload, in inputs, cfg runConfig, res *runResult, measured []*passResult, virt map[string]float64) {
	samples := map[string][]float64{}
	add := func(m map[string]float64) {
		for name, v := range m {
			samples[name] = append(samples[name], v)
		}
	}
	fail := func(err error) { res.Errors = append(res.Errors, "traced pass: "+err.Error()) }

	p, err := runPass(w, in, cruz.Config{Trace: true, TraceCapacity: traceCapacity})
	traced := &p.res
	res.Attempted += traced.attempted
	if err != nil {
		res.Failed++
		fail(err)
		return
	}
	// Observer invariance: switching the tracer on must not move the
	// virtual clock.
	if diff := diffVirtual(virt, virtualMetrics(traced)); diff != "" {
		fail(fmt.Errorf("tracing changed the simulation: %s", diff))
	}
	add(counterMetrics(traced))
	phases, err := phaseMetrics(p)
	add(phases)
	if err != nil {
		fail(err)
	}

	var hostS []float64
	for _, r := range measured {
		add(spanMetrics(r))
		hostS = append(hostS, r.host.Seconds())
	}
	samples["trace.host_overhead_ratio"] = []float64{traced.host.Seconds() / median(hostS)}
	samples["sim.host_ns_per_event"] = []float64{median(hostS) * 1e9 / virt[eventsKey]}

	replayed, err := replayLayers(p)
	if err != nil {
		fail(err)
	}
	for name, v := range replayed {
		samples[name] = v
	}
	if cfg.traceout != "" {
		if err := writeTraces(filepath.Join(cfg.traceout, w.name), p); err != nil {
			fail(err)
		}
	}
	p = nil
	runtime.GC()

	twin, err := treeTwin(w, in)
	if err != nil {
		fail(err)
	}
	add(twin)

	res.PerLayer = map[string]stat{}
	for _, d := range perLayer {
		if len(samples[d.Name]) == 0 {
			fail(fmt.Errorf("metric %s was not measured", d.Name))
			continue
		}
		res.PerLayer[d.Name] = summarize(d, samples[d.Name])
	}
}
