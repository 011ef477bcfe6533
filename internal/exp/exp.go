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
	"cruz/internal/sim"
)

func init() {
	cruz.RegisterProgram(&slm.Worker{})
	cruz.RegisterProgram(&stream.Sender{})
	cruz.RegisterProgram(&stream.Receiver{})
}

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

// ring is an slm job deployed one worker pod per node.
type ring struct {
	cl      *cruz.Cluster
	job     *cruz.Job
	names   []string
	workers []*slm.Worker
}

// deployRing builds a cluster from cc and places n slm workers on its
// nodes 0..n-1: pod i, named fmt.Sprintf(podFmt, i), runs cfg (its grid
// scaled by gridMult[i] where that is given) and sends to pod i+1 mod n.
// The pods form one job named job; deployRing returns once every worker
// has taken two steps. Pod and job names ride in control frames, so each
// experiment keeps the names its numbers were measured with.
func deployRing(cc cruz.Config, job, podFmt string, n int, cfg slm.Config, gridMult []float64) (*ring, error) {
	cl, err := cruz.New(cc)
	if err != nil {
		return nil, err
	}
	r := &ring{cl: cl}
	var ips []cruz.Addr
	for i := 0; i < n; i++ {
		name := fmt.Sprintf(podFmt, i)
		pod, perr := cl.NewPod(i, name)
		if perr != nil {
			return nil, perr
		}
		r.names = append(r.names, name)
		ips = append(ips, pod.IP())
	}
	for i, name := range r.names {
		wcfg := cfg
		if i < len(gridMult) && gridMult[i] > 0 {
			wcfg.GridBytes = uint64(float64(cfg.GridBytes) * gridMult[i])
		}
		w := slm.NewWorker(wcfg, i, ips[(i+1)%n])
		if _, err := cl.Pod(name).Spawn("slm", w); err != nil {
			return nil, err
		}
		r.workers = append(r.workers, w)
	}
	if r.job, err = cl.DefineJob(job, r.names...); err != nil {
		return nil, err
	}
	started := cl.RunUntil(func() bool {
		for _, w := range r.workers {
			if w.StepsDone < 2 {
				return false
			}
		}
		return true
	}, 10*60*cruz.Second)
	if !started {
		return nil, fmt.Errorf("exp: %s ring never started (n=%d)", job, n)
	}
	return r, nil
}

// slmRing deploys the benchmark ring — pods slm-0 … slm-(n-1) of job
// "slm" on the n = cc.Nodes nodes of a cluster seeded by n.
func slmRing(cc cruz.Config, cfg slm.Config, gridMult []float64) (*ring, error) {
	cc.Seed = int64(cc.Nodes)*101 + 7
	return deployRing(cc, "slm", "slm-%d", cc.Nodes, cfg, gridMult)
}

// restart destroys every pod of the ring and restarts the job from its
// newest checkpoint.
func (r *ring) restart() (*cruz.RestartResult, error) {
	for _, name := range r.names {
		r.cl.Pod(name).Destroy()
	}
	return r.cl.Restart(r.job, 0)
}

// killAndRecover fails node 1 and returns the automatic recovery's
// result.
func (r *ring) killAndRecover() (*cruz.RecoveryResult, error) {
	r.cl.FailNode(1)
	if !r.cl.AwaitRecovery(1, 60*cruz.Second) {
		return nil, fmt.Errorf("exp: %s recovery never completed (n=%d)", r.job.Name, len(r.names))
	}
	if err := r.cl.RecoveryErr(); err != nil {
		return nil, fmt.Errorf("exp: %s recovery (n=%d): %w", r.job.Name, len(r.names), err)
	}
	return r.cl.Recoveries()[0], nil
}

// resumed proves the job runs again after a recovery: every pod steps
// past where it stands now, and none reports a fault. Re-homed pods run
// restored program instances, so each pod's program is looked up afresh.
func (r *ring) resumed() error {
	live := func(i int) *slm.Worker {
		return r.cl.Pod(r.names[i]).Process(1).Program().(*slm.Worker)
	}
	before := make([]int, len(r.names))
	for i := range before {
		before[i] = live(i).StepsDone
	}
	progressed := r.cl.RunUntil(func() bool {
		for i, steps := range before {
			if live(i).StepsDone <= steps {
				return false
			}
		}
		return true
	}, 60*cruz.Second)
	if !progressed {
		return fmt.Errorf("exp: %s ring stuck after recovery (n=%d)", r.job.Name, len(r.names))
	}
	ws := make([]*slm.Worker, len(r.names))
	for i := range ws {
		ws[i] = live(i)
	}
	return checkWorkers(ws)
}

// checkWorkers returns an error if any worker recorded a fault.
func checkWorkers(ws []*slm.Worker) error {
	for i, w := range ws {
		if w.Fault != "" {
			return fmt.Errorf("exp: worker %d fault: %s", i, w.Fault)
		}
	}
	return nil
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
		r, err := slmRing(cruz.Config{Nodes: n}, slmConfig(n, scale), nil)
		if err != nil {
			return nil, err
		}
		var lat, ovh, local metrics.Summary
		var imgBytes int64
		for k := 0; k < ckptsEach; k++ {
			res, cerr := r.cl.Checkpoint(r.job, cruz.CheckpointOptions{})
			if cerr != nil {
				return nil, fmt.Errorf("exp: fig5 n=%d ckpt %d: %w", n, k, cerr)
			}
			lat.AddDuration(res.Latency)
			ovh.Add(res.Overhead.Microseconds())
			local.AddDuration(res.MaxLocalCheckpoint)
			imgBytes = res.TotalImageBytes / int64(n)
			r.cl.Run(interval)
		}
		if err := checkWorkers(r.workers); err != nil {
			return nil, err
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
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		return nil, err
	}
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
	if r := resolve(); r.Fault != "" {
		return nil, fmt.Errorf("exp: fig6 receiver fault: %s", r.Fault)
	}

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
		return waitSlm(cl, workers)
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
		return waitSlm(cl, workers)
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
	if err := checkWorkers(workers); err != nil {
		return 0, err
	}
	var max sim.Duration
	for _, w := range workers {
		if d := sim.Duration(w.FinishedAt - w.StartedAt); d > max {
			max = d
		}
	}
	return max, nil
}
