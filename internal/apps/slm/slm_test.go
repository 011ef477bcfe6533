package slm

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"cruz"
	"cruz/internal/ckpt"
	"cruz/internal/kernel"
	"cruz/internal/sim"
)

func init() {
	cruz.RegisterProgram(&Worker{})
}

// smallConfig is a scaled-down slm for fast tests: the structure (ring
// halo exchange, lockstep steps, grid memory) matches the benchmark
// configuration, only the magnitudes shrink.
func smallConfig(workers int) Config {
	return Config{
		Workers:             workers,
		Steps:               40,
		TotalComputePerStep: 4 * sim.Millisecond,
		StepOverhead:        500 * sim.Microsecond,
		HaloBytes:           4 << 10,
		GridBytes:           1 << 20,
		DirtyPagesPerStep:   16,
		Port:                9200,
	}
}

// deploy builds a cluster with one slm worker pod per node.
func deploy(t testing.TB, cfg Config) (*cruz.Cluster, *cruz.Job, []*Worker) {
	t.Helper()
	return deployWrapped(t, cfg, func(w *Worker) kernel.Program { return w })
}

// deployWrapped is deploy with wrap standing between each worker and the
// kernel.
func deployWrapped(t testing.TB, cfg Config, wrap func(*Worker) kernel.Program) (*cruz.Cluster, *cruz.Job, []*Worker) {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	var names []string
	// Create pods first so worker i can learn the IP of worker i+1.
	var ips []cruz.Addr
	for i := 0; i < cfg.Workers; i++ {
		name := "slm-" + string(rune('a'+i))
		pod, perr := cl.NewPod(i, name)
		if perr != nil {
			t.Fatal(perr)
		}
		ips = append(ips, pod.IP())
		names = append(names, name)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := NewWorker(cfg, i, ips[(i+1)%cfg.Workers])
		if _, err := cl.Pod(names[i]).Spawn("slm", wrap(w)); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	job, err := cl.DefineJob("slm", names...)
	if err != nil {
		t.Fatal(err)
	}
	return cl, job, workers
}

// check fails the test with every violation the cluster's oracle reports.
func check(t testing.TB, cl *cruz.Cluster) {
	t.Helper()
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRunsToCompletion(t *testing.T) {
	cfg := smallConfig(3)
	cl, _, workers := deploy(t, cfg)
	expected := cfg.ExpectedRuntime()
	done := func() bool {
		for _, w := range workers {
			if !w.Done() {
				return false
			}
		}
		return true
	}
	if !cl.RunUntil(done, 4*expected) {
		t.Fatalf("slm did not finish within 4x expected runtime (steps: %d/%d)",
			workers[0].StepsDone, cfg.Steps)
	}
	check(t, cl)
	// Runtime matches the analytic model within tolerance (the model
	// ignores communication time, which is small at this scale).
	actual := sim.Duration(workers[0].FinishedAt - workers[0].StartedAt)
	if actual < expected || actual > expected+expected/4 {
		t.Fatalf("runtime %v vs expected %v", actual, expected)
	}
}

func TestScalingMatchesPaperShape(t *testing.T) {
	// With the paper-calibrated constants the analytic runtime must
	// land on the published numbers: ~545s at 2 workers, ~205s at 8.
	two := DefaultConfig(2).ExpectedRuntime().Seconds()
	eight := DefaultConfig(8).ExpectedRuntime().Seconds()
	if two < 530 || two > 560 {
		t.Fatalf("2-worker runtime = %.0fs, want ~545s", two)
	}
	if eight < 195 || eight > 215 {
		t.Fatalf("8-worker runtime = %.0fs, want ~205s", eight)
	}
}

func TestSurvivesCoordinatedCheckpoint(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Steps = 0 // run forever
	cl, job, workers := deploy(t, cfg)
	cl.Run(200 * cruz.Millisecond)
	check(t, cl)
	before := workers[0].StepsDone
	if before == 0 {
		t.Fatal("no progress before checkpoint")
	}
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Run(200 * cruz.Millisecond)
	check(t, cl)
	if workers[0].StepsDone <= before {
		t.Fatal("no progress after checkpoint")
	}
}

func TestCrashRestartRollsBack(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Steps = 0
	cl, job, workers := deploy(t, cfg)
	cl.Run(200 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	atCkpt := workers[0].StepsDone
	cl.Run(200 * cruz.Millisecond)
	// Crash both pods.
	cl.Pod("slm-a").Destroy()
	cl.Pod("slm-b").Destroy()
	if _, err := cl.Restart(job, 0); err != nil {
		t.Fatal(err)
	}
	// Resolve the new incarnations.
	w0 := cl.Pod("slm-a").Process(1).Program().(*Worker)
	w1 := cl.Pod("slm-b").Process(1).Program().(*Worker)
	if w0.StepsDone < atCkpt-1 || w0.StepsDone > atCkpt+1 {
		t.Fatalf("restarted at step %d, checkpointed at %d", w0.StepsDone, atCkpt)
	}
	cl.Run(300 * cruz.Millisecond)
	check(t, cl)
	if w0.StepsDone <= atCkpt || w1.StepsDone <= atCkpt {
		t.Fatal("ring stuck after restart")
	}
}

// metered runs a Worker with before and after called around each of its
// steps, so a test sees what the steps themselves cost.
type metered struct {
	*Worker
	before, after func()
}

func (m *metered) Step(ctx *kernel.ProcContext) kernel.StepResult {
	m.before()
	r := m.Worker.Step(ctx)
	m.after()
	return r
}

// stepUntil runs the cluster event by event until cond holds.
func stepUntil(t testing.TB, cl *cruz.Cluster, cond func() bool) {
	t.Helper()
	for events := 0; !cond(); events++ {
		if events > 10_000_000 || !cl.Engine.Step() {
			t.Fatalf("condition not reached after %d events", events)
		}
	}
}

// TestWorkerStepAllocatesNothing: on a warmed two-rank ring a whole model
// step — the compute, both halo sends, both receives and the stamp check,
// with the syscalls and TCP segments they make — allocates nothing.
func TestWorkerStepAllocatesNothing(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Steps = 0
	var (
		ms             runtime.MemStats
		counting       bool
		start, mallocs uint64
	)
	before := func() {
		runtime.ReadMemStats(&ms)
		start = ms.Mallocs
	}
	after := func() {
		runtime.ReadMemStats(&ms)
		if counting {
			mallocs += ms.Mallocs - start
		}
	}
	cl, _, workers := deployWrapped(t, cfg, func(w *Worker) kernel.Program {
		return &metered{Worker: w, before: before, after: after}
	})
	const warm, measured = 20, 40
	stepUntil(t, cl, func() bool { return workers[0].StepsDone >= warm })
	// A collection starting inside a step can start the runtime's own
	// mark workers, whose goroutines count as allocations. So can a
	// restart of the world (ReadMemStats stops it twice a step) that finds
	// an idle P and starts an OS thread for it: with one P there is none.
	// And the runtime's background scavenger, pacing the return of free
	// pages to the OS, re-arms its sleep timer whenever it gets the P,
	// which can grow the P's timer heap: returning every free page first
	// leaves it nothing to pace, so it parks without a timer.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	debug.FreeOSMemory()
	counting = true
	stepUntil(t, cl, func() bool { return workers[0].StepsDone >= warm+measured })
	counting = false
	check(t, cl)
	t.Logf("%d allocations over %d ring steps", mallocs, measured)
	if mallocs != 0 {
		t.Errorf("%d allocations over %d warmed ring steps, want 0", mallocs, measured)
	}
}

// BenchmarkHaloStep times one model step of a warmed two-rank ring: both
// workers' compute, halo sends and receives. The timer runs only inside
// the workers' steps, so the cluster's daemons and the frames in flight
// between steps are not counted. Expect 0 allocs/op.
func BenchmarkHaloStep(b *testing.B) {
	cfg := smallConfig(2)
	cfg.Steps = 0
	b.StopTimer()
	cl, _, workers := deployWrapped(b, cfg, func(w *Worker) kernel.Program {
		return &metered{Worker: w, before: b.StartTimer, after: b.StopTimer}
	})
	stepUntil(b, cl, func() bool { return workers[0].StepsDone >= 20 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := workers[0].StepsDone + 1
		stepUntil(b, cl, func() bool { return workers[0].StepsDone >= next })
	}
	check(b, cl)
}

// TestCheckpointMidReceive: a worker stopped with RecvLeft partly filled
// inside its reused array checkpoints the same ProgData as the same state
// held in exact-length slices, and its restore — whose slices are exact
// and whose outgoing band is gone — finishes the step with no halo fault.
func TestCheckpointMidReceive(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Steps = 0
	cfg.HaloBytes = 16 << 10 // several segments, so a receive stops midway
	cl, _, workers := deploy(t, cfg)
	w := workers[0]
	midReceive := func() bool {
		return w.StepsDone >= 3 && w.Phase == phaseRecvHalos &&
			len(w.RecvLeft) > 0 && len(w.RecvLeft) < cfg.HaloBytes
	}
	stepUntil(t, cl, midReceive)

	pod := cl.Pod("slm-a")
	filter := pod.Kernel().Stack().Filter()
	rule := filter.AddDropAddr(pod.IP())
	stopped := false
	pod.Stop(func() { stopped = true })
	if !cl.RunUntil(func() bool { return stopped }, cruz.Second) {
		t.Fatal("pod did not stop")
	}
	if !midReceive() || cap(w.RecvLeft) != cfg.HaloBytes {
		t.Fatalf("stopped at phase %d with %d of %d left-halo bytes (cap %d): not mid-receive in a reused array",
			w.Phase, len(w.RecvLeft), cfg.HaloBytes, cap(w.RecvLeft))
	}
	img, err := ckpt.Capture(pod, 1, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	received := len(w.RecvLeft)

	w.RecvLeft = append([]byte(nil), w.RecvLeft...)
	w.RecvRight = append([]byte(nil), w.RecvRight...)
	w.band = nil
	exact, err := ckpt.Capture(pod, 1, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Processes) != 1 || !bytes.Equal(img.Processes[0].ProgData, exact.Processes[0].ProgData) {
		t.Fatal("ProgData of reused halo arrays differs from that of exact-length slices")
	}

	pod.Destroy()
	filter.RemoveRule(rule)
	restored, err := ckpt.Restore(pod.Kernel(), img)
	if err != nil {
		t.Fatal(err)
	}
	restored.Resume()
	w2 := restored.Process(1).Program().(*Worker)
	if len(w2.RecvLeft) != received || w2.Phase != phaseRecvHalos {
		t.Fatalf("restored at phase %d with %d left-halo bytes, captured %d", w2.Phase, len(w2.RecvLeft), received)
	}
	peer, target := workers[1], w2.StepsDone+3
	if !cl.RunUntil(func() bool { return w2.StepsDone >= target && peer.StepsDone >= target }, 5*cruz.Second) {
		t.Fatalf("ring stuck after restore: steps %d and %d, want %d", w2.StepsDone, peer.StepsDone, target)
	}
	// w2 lives in a pod ckpt.Restore built, outside the cluster's sight.
	for _, w := range []*Worker{w2, peer} {
		if w.Fault != "" {
			t.Fatalf("rank %d fault: %s", w.Rank, w.Fault)
		}
	}
}
