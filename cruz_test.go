package cruz_test

import (
	"errors"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/sim"
)

func init() {
	cruz.RegisterProgram(&slm.Worker{})
}

func smallSlm(workers int) slm.Config {
	return slm.Config{
		Workers:             workers,
		Steps:               0,
		TotalComputePerStep: 4 * sim.Millisecond,
		StepOverhead:        500 * sim.Microsecond,
		HaloBytes:           4 << 10,
		GridBytes:           1 << 20,
		DirtyPagesPerStep:   16,
		Port:                9200,
	}
}

// deployRing places one slm worker pod per node.
func deployRing(t testing.TB, cl *cruz.Cluster, n int) ([]string, *cruz.Job) {
	t.Helper()
	return deployRingCfg(t, cl, smallSlm(n))
}

// deployRingCfg is deployRing with an explicit slm config (finite step
// counts, different grids); cfg.Workers pods land on nodes 0..Workers-1.
func deployRingCfg(t testing.TB, cl *cruz.Cluster, cfg slm.Config) ([]string, *cruz.Job) {
	t.Helper()
	n := cfg.Workers
	var names []string
	var ips []cruz.Addr
	for i := 0; i < n; i++ {
		name := "w" + string(rune('a'+i))
		pod, err := cl.NewPod(i, name)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		ips = append(ips, pod.IP())
	}
	for i, name := range names {
		if _, err := cl.Pod(name).Spawn("slm", slm.NewWorker(cfg, i, ips[(i+1)%n])); err != nil {
			t.Fatal(err)
		}
	}
	job, err := cl.DefineJob("ring", names...)
	if err != nil {
		t.Fatal(err)
	}
	return names, job
}

func TestClusterBasics(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 3 || cl.Service == nil {
		t.Fatalf("nodes=%d service=%v", len(cl.Nodes), cl.Service)
	}
	if cl.Nodes[1].Addr() != (cruz.Addr{10, 0, 0, 2}) {
		t.Fatalf("node addr = %v", cl.Nodes[1].Addr())
	}
	pod, err := cl.NewPod(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NewPod(1, "a"); err == nil {
		t.Fatal("duplicate pod name accepted")
	}
	if _, err := cl.NewPod(99, "b"); err == nil {
		t.Fatal("bad node accepted")
	}
	ip, err := cl.PodIP("a")
	if err != nil || ip != pod.IP() {
		t.Fatalf("PodIP = %v/%v", ip, err)
	}
	if _, err := cl.PodIP("ghost"); !errors.Is(err, cruz.ErrUnknownPod) {
		t.Fatalf("PodIP ghost = %v", err)
	}
	if _, err := cl.DefineJob("j", "ghost"); !errors.Is(err, cruz.ErrUnknownPod) {
		t.Fatalf("DefineJob ghost = %v", err)
	}
}

func TestCheckpointRestartViaFacade(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 2)
	cl.Run(200 * cruz.Millisecond)
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || res.Latency <= 0 {
		t.Fatalf("result %+v", res)
	}
	for _, n := range names {
		cl.Pod(n).Destroy()
	}
	rres, err := cl.Restart(job, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Seq != 1 {
		t.Fatalf("restart seq = %d", rres.Seq)
	}
	cl.Run(200 * cruz.Millisecond)
	for _, n := range names {
		w := cl.Pod(n).Process(1).Program().(*slm.Worker)
		if w.Fault != "" || w.StepsDone == 0 {
			t.Fatalf("pod %s after restart: steps=%d fault=%q", n, w.StepsDone, w.Fault)
		}
	}
}

func TestNodeFailureRecoveryOnSpareNode(t *testing.T) {
	// The fault-tolerance story end to end: checkpoint, lose a machine,
	// and its pod restarts — with the whole job, from the replicated image
	// — on a node that hosted none.
	cl, err := cruz.New(cruz.Config{Nodes: 3, Spares: 1, Replicas: 1, AutoRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ring on nodes 0 and 1; node 2 and the spare stand by.
	names, job := deployRing(t, cl, 2)
	worker := func(i int) *slm.Worker { return cl.Pod(names[i]).Process(1).Program().(*slm.Worker) }
	cl.Run(200 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	stepsAt := worker(1).StepsDone
	replicated := func() bool {
		return cl.Nodes[0].Agent.Stats.Replications == 1 && cl.Nodes[1].Agent.Stats.Replications == 1
	}
	if !cl.RunUntil(replicated, 10*cruz.Second) {
		t.Fatal("replication never completed")
	}

	cl.FailNode(1)
	if !cl.AwaitRecovery(1, 10*cruz.Second) {
		t.Fatal("automatic recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatal(err)
	}
	// A restart is a rollback of the whole job to the checkpoint.
	w0, w1 := worker(0), worker(1)
	if w1.StepsDone > stepsAt+1 || w1.StepsDone+1 < stepsAt {
		t.Fatalf("restarted steps %d, checkpointed %d", w1.StepsDone, stepsAt)
	}
	cl.Run(300 * cruz.Millisecond)
	if w0.Fault != "" || w1.Fault != "" {
		t.Fatalf("faults after spare-node recovery: %q %q", w0.Fault, w1.Fault)
	}
	if w1.StepsDone <= stepsAt {
		t.Fatal("ring stuck after spare-node recovery")
	}
	// The recovered pod really lives on a node that hosted no pod before.
	if got := cl.PodNode(names[1]); got.Index < 2 {
		t.Fatalf("pod node = %d", got.Index)
	}
}

func TestFlushBaselineViaFacade(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2, FlushBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := deployRing(t, cl, 2)
	cl.Run(200 * cruz.Millisecond)
	fjob, err := cl.DefineFlushJob("fring", names...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.FlushCheckpoint(fjob)
	if err != nil {
		t.Fatal(err)
	}
	if res.MarkerMessages != 2 {
		t.Fatalf("markers = %d, want 2", res.MarkerMessages)
	}
	cl.Run(200 * cruz.Millisecond)
	for _, n := range names {
		w := cl.Pod(n).Process(1).Program().(*slm.Worker)
		if w.Fault != "" {
			t.Fatalf("fault after flush checkpoint: %q", w.Fault)
		}
	}
}

func TestFlushRequiresConfig(t *testing.T) {
	cl, _ := cruz.New(cruz.Config{Nodes: 2})
	if _, err := cl.DefineFlushJob("x"); err == nil {
		t.Fatal("flush job without FlushBaseline accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (cruz.Duration, int) {
		cl, err := cruz.New(cruz.Config{Nodes: 2, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		_, job := deployRing(t, cl, 2)
		cl.Run(200 * cruz.Millisecond)
		res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency, res.Messages
	}
	l1, m1 := run()
	l2, m2 := run()
	if l1 != l2 || m1 != m2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", l1, m1, l2, m2)
	}
}
