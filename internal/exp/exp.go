// Package exp is the experiment harness: one function per table or
// figure in the paper's evaluation (§6), each returning structured
// results. cmd/cruzbench prints them as text tables and records the same
// cells in BENCH_cruz.json; EXPERIMENTS.md records paper-versus-measured
// values.
//
// Scale notes: the paper's pods checkpoint ≈100 MB images. A scale
// parameter (1.0 = paper scale) shrinks the slm grid proportionally so
// quick runs stay quick; all *shape* results (who wins, slopes,
// crossovers) are scale-invariant, and the calibrated absolute numbers
// in EXPERIMENTS.md use scale 1.0.
package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/apps/stream"
	"cruz/internal/metrics"
	"cruz/internal/scenario"
	"cruz/internal/sim"
)

// slmConfig returns the benchmark slm configuration at the given scale.
func slmConfig(workers int, scale float64) slm.Config {
	cfg := slm.DefaultConfig(workers)
	cfg.Steps = 0 // run until the experiment ends
	cfg.GridBytes = uint64(float64(cfg.GridBytes) * scale)
	if cfg.GridBytes < 1<<20 {
		cfg.GridBytes = 1 << 20
	}
	// Keep step time moderate at small scales so experiments converge
	// in reasonable virtual time.
	if scale < 1 {
		cfg.TotalComputePerStep = sim.Duration(float64(cfg.TotalComputePerStep) * scale)
		cfg.StepOverhead = sim.Duration(float64(cfg.StepOverhead) * scale)
		if cfg.TotalComputePerStep < 10*sim.Millisecond {
			cfg.TotalComputePerStep = 10 * sim.Millisecond
		}
		if cfg.StepOverhead < sim.Millisecond {
			cfg.StepOverhead = sim.Millisecond
		}
		cfg.DirtyPagesPerStep = int(float64(cfg.DirtyPagesPerStep) * scale)
		if cfg.DirtyPagesPerStep < 8 {
			cfg.DirtyPagesPerStep = 8
		}
	}
	return cfg
}

// ring is an slm job deployed through scenario, worker i on node i.
type ring struct {
	*scenario.World
	job   *cruz.Job
	names []string
}

// warmRing deploys rg on a cluster built from cc and returns once every
// worker has taken two steps. Pod and job names ride in control frames,
// so each experiment keeps the names its numbers were measured with.
func warmRing(cc cruz.Config, rg scenario.Ring) (*ring, error) {
	w, err := scenario.Deploy(scenario.Deployment{Config: cc, Ring: &rg})
	if err != nil {
		return nil, err
	}
	r := &ring{World: w, job: w.Job(rg.Name)}
	for _, m := range r.job.Members {
		r.names = append(r.names, m.Pod)
	}
	if !r.advance(2, 10*60*cruz.Second) {
		return nil, fmt.Errorf("exp: %s ring never started (n=%d)", rg.Name, len(r.names))
	}
	return r, nil
}

// slmRing deploys the benchmark ring — pods slm-0 … slm-(n-1) of job
// "slm" on the n = cc.Nodes nodes of a cluster seeded by n — rank i's
// grid grid[i] times cfg's where that is given.
func slmRing(cc cruz.Config, cfg slm.Config, grid ...uint64) (*ring, error) {
	cc.Seed = int64(cc.Nodes)*101 + 7
	return warmRing(cc, scenario.Ring{Name: "slm", SLM: cfg, Grid: grid})
}

// advance runs until every worker has taken k more steps. Each pod's
// program is looked up afresh: a restored pod runs a new instance.
func (r *ring) advance(k int, limit cruz.Duration) bool {
	from := r.steps()
	return r.Cluster.RunUntil(func() bool {
		for i, n := range r.steps() {
			if n < from[i]+k {
				return false
			}
		}
		return true
	}, limit)
}

// steps returns how many steps each worker has taken so far.
func (r *ring) steps() []int {
	out := make([]int, len(r.names))
	for i, name := range r.names {
		out[i] = r.Cluster.Pod(name).Process(1).Program().(*slm.Worker).StepsDone
	}
	return out
}

// Fig5Row is one node-count configuration of Fig. 5.
type Fig5Row struct {
	Nodes int
	// Fig. 5(a): total checkpoint latency at the coordinator.
	LatencyMeanMs, LatencyStdMs float64
	// Fig. 5(b): coordination overhead.
	OverheadMeanUs, OverheadStdUs float64
	// Supporting detail: slowest local checkpoint and image volume.
	LocalMeanMs   float64
	PerPodImageMB float64
}

// Fig5 reproduces Figures 5(a) and 5(b): coordinated checkpoints of the
// slm benchmark across node counts, reporting total latency and
// coordination overhead (mean ± stddev over ckptsEach checkpoints taken
// every interval, as in the paper's every-8-seconds runs).
func Fig5(nodeCounts []int, ckptsEach int, interval cruz.Duration, scale float64) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, n := range nodeCounts {
		r, err := slmRing(cruz.Config{Nodes: n}, slmConfig(n, scale))
		if err != nil {
			return nil, err
		}
		var lat, ovh, local metrics.Summary
		var imgBytes int64
		for k := 0; k < ckptsEach; k++ {
			res, cerr := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{})
			if cerr != nil {
				return nil, fmt.Errorf("exp: fig5 n=%d ckpt %d: %w", n, k, cerr)
			}
			lat.AddDuration(res.Latency)
			ovh.Add(res.Overhead.Microseconds())
			local.AddDuration(res.MaxLocalCheckpoint)
			imgBytes = res.TotalImageBytes / int64(n)
			r.Cluster.Run(interval)
		}
		rows = append(rows, Fig5Row{
			Nodes:          n,
			LatencyMeanMs:  lat.Mean(),
			LatencyStdMs:   lat.StdDev(),
			OverheadMeanUs: ovh.Mean(),
			OverheadStdUs:  ovh.StdDev(),
			LocalMeanMs:    local.Mean(),
			PerPodImageMB:  float64(imgBytes) / (1 << 20),
		})
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: fig5 n=%d: %w", n, err)
		}
	}
	return rows, nil
}

// Fig6Result is the TCP streaming trace of Fig. 6.
type Fig6Result struct {
	// Series is the receive rate in Mb/s sampled every millisecond over
	// a 10 ms sliding window, time-shifted so the checkpoint starts at 0.
	Series *metrics.Series
	// SteadyMbps is the pre-checkpoint rate.
	SteadyMbps float64
	// CheckpointMs is the coordinated checkpoint latency.
	CheckpointMs float64
	// ZeroMs is how long the receiver observed a zero rate.
	ZeroMs float64
	// RecoveryMs is when the rate is back above 90% of steady, measured
	// from checkpoint start.
	RecoveryMs float64
}

// Fig6 reproduces Figure 6: the effect of a coordinated checkpoint's
// dropped packets on a maximum-rate TCP stream between two nodes.
func Fig6() (*Fig6Result, error) {
	w, err := scenario.Deploy(scenario.Deployment{Config: cruz.Config{Nodes: 2}})
	if err != nil {
		return nil, err
	}
	cl := w.Cluster
	rpod, err := cl.NewPod(0, "recv")
	if err != nil {
		return nil, err
	}
	spod, err := cl.NewPod(1, "send")
	if err != nil {
		return nil, err
	}
	// Ballast sizes the pods so the local checkpoint takes ≈120 ms, the
	// paper's Fig. 6 timeline (checkpoint completes at ~120 ms, TCP
	// recovers ~100 ms later).
	const ballast = 12 << 20
	recv := stream.NewReceiver(0)
	recv.Ballast = ballast
	if _, err := rpod.Spawn("receiver", recv); err != nil {
		return nil, err
	}
	sender := stream.NewSender(cruz.AddrPort{Addr: rpod.IP(), Port: stream.DefaultPort})
	sender.Ballast = ballast
	if _, err := spod.Spawn("sender", sender); err != nil {
		return nil, err
	}
	job, err := cl.DefineJob("stream", "recv", "send")
	if err != nil {
		return nil, err
	}
	cl.Run(300 * cruz.Millisecond) // reach steady state

	meter := metrics.NewRateMeter(10 * cruz.Millisecond)
	series := &metrics.Series{Name: "receive rate (Mb/s), checkpoint at t=0"}
	last := recv.Received
	resolve := func() *stream.Receiver {
		return cl.Pod("recv").Process(1).Program().(*stream.Receiver)
	}
	ticker := cl.Engine.NewTicker(cruz.Millisecond, func() {
		r := resolve()
		if r.Received >= last {
			meter.Record(cl.Engine.Now(), int(r.Received-last))
		}
		last = r.Received
		series.Add(cl.Engine.Now(), meter.RateMbps(cl.Engine.Now()))
	})
	defer ticker.Stop()

	cl.Run(50 * cruz.Millisecond) // steady-rate samples before t=0
	steady := meter.RateMbps(cl.Engine.Now())

	t0 := cl.Engine.Now()
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		return nil, err
	}
	cl.Run(700 * cruz.Millisecond)

	out := &Fig6Result{
		Series:       series.Shifted(t0),
		SteadyMbps:   steady,
		CheckpointMs: res.Latency.Milliseconds(),
	}
	// Analyze the shifted trace: total zero-rate span, then recovery =
	// first return to 90% of steady *after* the rate has collapsed (the
	// sliding window keeps early post-checkpoint samples high).
	var zeroSpan cruz.Duration
	var prev cruz.Time
	sawZero := false
	for _, p := range out.Series.Points {
		if p.T < 0 {
			prev = p.T
			continue
		}
		if p.V == 0 {
			sawZero = true
			zeroSpan += sim.Duration(p.T - prev)
		}
		if out.RecoveryMs == 0 && sawZero && p.V >= 0.9*steady {
			out.RecoveryMs = sim.Duration(p.T).Milliseconds()
		}
		prev = p.T
	}
	out.ZeroMs = zeroSpan.Milliseconds()
	if err := w.Check(); err != nil {
		return nil, fmt.Errorf("exp: fig6: %w", err)
	}
	return out, nil
}

// OverheadResult reports the §6 runtime-virtualization measurement.
type OverheadResult struct {
	NativeMs, PodMs float64
	OverheadPct     float64
}

// RuntimeOverhead reproduces the §6 claim that Cruz's runtime overhead is
// negligible (< 0.5%): the same slm computation is run natively and
// inside pods, and the execution times compared.
func RuntimeOverhead() (*OverheadResult, error) {
	const n = 2
	cfg := slmConfig(n, 0.02)
	cfg.Steps = 100

	runPods := func() (sim.Duration, error) {
		cl, err := cruz.New(cruz.Config{Nodes: n})
		if err != nil {
			return 0, err
		}
		var workers []*slm.Worker
		var ips []cruz.Addr
		for i := 0; i < n; i++ {
			pod, perr := cl.NewPod(i, fmt.Sprintf("p%d", i))
			if perr != nil {
				return 0, perr
			}
			ips = append(ips, pod.IP())
		}
		for i := 0; i < n; i++ {
			w := slm.NewWorker(cfg, i, ips[(i+1)%n])
			workers = append(workers, w)
			if _, err := cl.Pod(fmt.Sprintf("p%d", i)).Spawn("slm", w); err != nil {
				return 0, err
			}
		}
		d, err := waitSlm(cl, workers)
		if err == nil {
			err = cl.Check()
		}
		return d, err
	}
	runNative := func() (sim.Duration, error) {
		cl, err := cruz.New(cruz.Config{Nodes: n})
		if err != nil {
			return 0, err
		}
		var workers []*slm.Worker
		for i := 0; i < n; i++ {
			// Native processes bind the node's own address.
			w := slm.NewWorker(cfg, i, cl.Nodes[(i+1)%n].Addr())
			workers = append(workers, w)
			cl.Nodes[i].Kernel.Spawn("slm", w, 0)
		}
		d, err := waitSlm(cl, workers)
		for i := 0; i < n && err == nil; i++ {
			if f := workers[i].Fault; f != "" {
				err = fmt.Errorf("exp: native worker %d fault: %s", i, f)
			}
		}
		return d, err
	}

	podT, err := runPods()
	if err != nil {
		return nil, fmt.Errorf("exp: pod run: %w", err)
	}
	natT, err := runNative()
	if err != nil {
		return nil, fmt.Errorf("exp: native run: %w", err)
	}
	return &OverheadResult{
		NativeMs:    natT.Milliseconds(),
		PodMs:       podT.Milliseconds(),
		OverheadPct: 100 * (podT.Seconds() - natT.Seconds()) / natT.Seconds(),
	}, nil
}

// waitSlm runs until all workers finish and returns the slowest
// steady-state runtime.
func waitSlm(cl *cruz.Cluster, workers []*slm.Worker) (sim.Duration, error) {
	done := func() bool {
		for _, w := range workers {
			if !w.Done() {
				return false
			}
		}
		return true
	}
	if !cl.RunUntil(done, 60*60*cruz.Second) {
		return 0, fmt.Errorf("exp: slm run never finished (steps %d)", workers[0].StepsDone)
	}
	var max sim.Duration
	for _, w := range workers {
		if d := sim.Duration(w.FinishedAt - w.StartedAt); d > max {
			max = d
		}
	}
	return max, nil
}
