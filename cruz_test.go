package cruz_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/ckpt"
	"cruz/internal/core"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/trace"
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
	names := spawnRing(t, cl, cfg)
	job, err := cl.DefineJob("ring", names...)
	if err != nil {
		t.Fatal(err)
	}
	return names, job
}

// spawnRing places the ring's pods as deployRingCfg does and defines no
// job over them.
func spawnRing(t testing.TB, cl *cruz.Cluster, cfg slm.Config) []string {
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
	return names
}

// leaseVerdict is the latest the heartbeat lease may fail an op after a
// fault silences one of its nodes: a lease of silence, a heartbeat period
// to notice it, and a millisecond for the coordinator's queued message
// costs — it stamps a pong when its serialized CPU reaches it, so one that
// arrived before the fault can be stamped after it.
const leaseVerdict = core.DefaultLeaseTimeout + core.DefaultHeartbeatEvery + cruz.Millisecond

// check fails the test with every violation Cluster.Check reports.
func check(t testing.TB, cl *cruz.Cluster) {
	t.Helper()
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReportsEachViolation holds the oracle to each condition it
// owns: a settled cluster passes, and each row leaves one violation (or,
// on failed nodes, one that must be ignored) for Check to name.
func TestCheckReportsEachViolation(t *testing.T) {
	// checkpointed leaves each pod's node replicating: an op and span open.
	checkpointed := func(cl *cruz.Cluster, job *cruz.Job) {
		if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		act  func(cl *cruz.Cluster, job *cruz.Job)
		want string // "" = Check must pass
	}{
		{"clean", func(*cruz.Cluster, *cruz.Job) {}, ""},
		{"coordinator op", func(cl *cruz.Cluster, job *cruz.Job) {
			cl.Coordinator.Checkpoint(job, cruz.CheckpointOptions{}, func(*cruz.CheckpointResult, error) {})
			cl.Run(2 * cruz.Millisecond)
		}, "coordinator has 1 open ops"},
		{"agent op", checkpointed, "node0 agent has 1 open ops"},
		{"span", func(cl *cruz.Cluster, _ *cruz.Job) {
			cl.FlightRecorder().Begin("node2", "test", "leak")
		}, "node2/test/leak"},
		// Killing wa closes its halo connections, so wb faults and exits.
		{"fault", func(cl *cruz.Cluster, _ *cruz.Job) {
			if err := cl.Pod("wa").Kill(1, kernel.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cl.Run(50 * cruz.Millisecond)
		}, "pod wb/1 fault: "},
		// A byte written into a page the store holds as a chunk.
		{"chunk", func(cl *cruz.Cluster, job *cruz.Job) {
			if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: true}); err != nil {
				t.Fatal(err)
			}
			cl.RunUntil(func() bool { return cl.Check() == nil }, 2*cruz.Second)
			var img *ckpt.Image
			for _, n := range cl.Nodes {
				if _, ok := n.Store.LatestSeq("wa"); ok && img == nil {
					n.Store.Load("wa", 0, true, trace.SpanContext{}, func(i *ckpt.Image, err error) { img = i })
					cl.RunUntil(func() bool { return img != nil }, cruz.Second)
				}
			}
			img.Processes[0].Memory.Page(0)[0] ^= 0xff
		}, "store: ckpt: 1 of"},
		{"failed nodes", func(cl *cruz.Cluster, job *cruz.Job) {
			checkpointed(cl, job)
			cl.FailNode(0)
			cl.FailNode(1)
		}, ""},
	} {
		cl, err := cruz.New(cruz.Config{Nodes: 3, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, job := deployRing(t, cl, 2)
		cl.Run(100 * cruz.Millisecond)
		tc.act(cl, job)
		err = cl.Check()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Check() = %v, want %q", tc.name, err, tc.want)
		}
	}
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
		if ringWorker(cl, n).StepsDone == 0 {
			t.Fatalf("pod %s made no step after restart", n)
		}
	}
	check(t, cl)
}

// TestContinueNeverWaitsForReplicaEncode is bench known gap 6 as a
// regression test. Each agent's done sets off the 8 MiB replica encode
// of the image it just saved; the continue that follows must not queue
// behind it. On one agent lane the continue round took ≈ 8 ms
// here, and whether that wait landed in MaxLocalContinue (and so left
// Overhead) turned on which of two events fired first: Overhead was 0.4
// or 8.7 ms under a 50 µs change of issue time. Every offset, and the
// second checkpoint's commit while the first one's replicas still stream,
// must stay on the fast side.
func TestContinueNeverWaitsForReplicaEncode(t *testing.T) {
	const bound = cruz.Millisecond
	for _, us := range []int{-100, -50, 0, 50, 100} {
		cl, err := cruz.New(cruz.Config{Nodes: 4, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallSlm(4)
		cfg.GridBytes = 8 << 20
		_, job := deployRingCfg(t, cl, cfg)
		cl.Run(200*cruz.Millisecond + cruz.Duration(us)*cruz.Microsecond)
		for i := 0; i < 2; i++ {
			res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxLocalContinue > bound || res.CycleLatency-res.MaxLocalCheckpoint > bound || res.Overhead > bound {
				t.Errorf("offset %+d µs, checkpoint %d: continue %v, cycle-checkpoint %v, overhead %v; want each under %v",
					us, i+1, res.MaxLocalContinue, res.CycleLatency-res.MaxLocalCheckpoint, res.Overhead, bound)
			}
			cl.Run(50 * cruz.Millisecond)
		}
		cl.RunUntil(func() bool { return cl.Check() == nil }, 2*cruz.Second)
		check(t, cl)
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
	w1 := worker(1)
	if w1.StepsDone > stepsAt+1 || w1.StepsDone+1 < stepsAt {
		t.Fatalf("restarted steps %d, checkpointed %d", w1.StepsDone, stepsAt)
	}
	cl.Run(300 * cruz.Millisecond)
	check(t, cl)
	if w1.StepsDone <= stepsAt {
		t.Fatal("ring stuck after spare-node recovery")
	}
	// The recovered pod really lives on a node that hosted no pod before.
	if got := cl.PodNode(names[1]); got.Index < 2 {
		t.Fatalf("pod node = %d", got.Index)
	}
}

func TestFlushBaselineViaFacade(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2})
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
	check(t, cl)
}

// TestCheckJudgesTheFlushingDaemons: once DefineFlushJob has started the
// flushing baseline's daemons, Check counts their open ops too. A probe
// in the middle of a flush checkpoint names the flush coordinator's op
// and each member agent's, and the settled cluster passes.
func TestCheckJudgesTheFlushingDaemons(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := deployRing(t, cl, 2)
	cl.Run(200 * cruz.Millisecond)
	fjob, err := cl.DefineFlushJob("fring", names...)
	if err != nil {
		t.Fatal(err)
	}
	var mid error
	cl.Engine.Schedule(cruz.Millisecond, func() { mid = cl.Check() })
	if _, err := cl.FlushCheckpoint(fjob); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flush coordinator has 1 open ops", "node0 flush agent has 1 open ops", "node1 flush agent has 1 open ops"} {
		if mid == nil || !strings.Contains(mid.Error(), want) {
			t.Errorf("Check() mid-checkpoint = %v, want %q", mid, want)
		}
	}
	cl.Run(200 * cruz.Millisecond)
	check(t, cl)
}

// TestFlushCheckpointKeepsCruzCheckpoint: the two protocols count
// sequence numbers apart, so the flushing baseline's checkpoint of a pod
// at the seq of a Cruz checkpoint must leave that one where it is — in
// the store and as what a restart restores.
func TestFlushCheckpointKeepsCruzCheckpoint(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 2)
	cl.Run(200 * cruz.Millisecond)
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil || res.Seq != 1 {
		t.Fatalf("Cruz checkpoint: %+v, %v", res, err)
	}
	img, ok := cl.Nodes[0].Store.Cached("wa", 1)
	if !ok {
		t.Fatal("no Cruz image of wa at seq 1")
	}
	cruzAt := img.TakenAt
	cl.Run(500 * cruz.Millisecond)
	fjob, err := cl.DefineFlushJob("fring", names...)
	if err != nil {
		t.Fatal(err)
	}
	stepsAtFlush := ringWorker(cl, "wa").StepsDone
	if fres, err := cl.FlushCheckpoint(fjob); err != nil || fres.Seq != 1 {
		t.Fatalf("flush checkpoint: %+v, %v", fres, err)
	}
	if img, ok := cl.Nodes[0].Store.Cached("wa", 1); !ok {
		t.Fatal("the flush checkpoint took the Cruz image of wa at seq 1 out of the store")
	} else if img.TakenAt != cruzAt {
		t.Fatalf("store holds wa/1 taken at %v, want the Cruz checkpoint's %v", img.TakenAt, cruzAt)
	}
	cl.Run(50 * cruz.Millisecond)
	if _, err := cl.Restart(job, 1); err != nil {
		t.Fatal(err)
	}
	if steps := ringWorker(cl, "wa").StepsDone; steps >= stepsAtFlush {
		t.Fatalf("restart restored wa at step %d, past the %d it had reached before the flush checkpoint", steps, stepsAtFlush)
	}
	cl.Run(100 * cruz.Millisecond)
	check(t, cl)
}

// TestFlushCheckpointKeepsCruzDirtyPages: the flushing baseline's capture
// is never Cruz's checkpoint, so it leaves Cruz's dirty tracking alone.
// The next incremental Cruz checkpoint, chained on the last Cruz one,
// must carry every page written since that one: its merged chain reads
// as the pod's memory at the capture.
func TestFlushCheckpointKeepsCruzDirtyPages(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 2)
	cl.Run(200 * cruz.Millisecond)
	if res, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil || res.Seq != 1 {
		t.Fatalf("Cruz checkpoint: %+v, %v", res, err)
	}
	cl.Run(500 * cruz.Millisecond)
	fjob, err := cl.DefineFlushJob("fring", names...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FlushCheckpoint(fjob); err != nil {
		t.Fatal(err)
	}

	// Stop wa and record its memory: the checkpoint captures it as is.
	pod, stopped := cl.Pod("wa"), false
	pod.Stop(func() { stopped = true })
	if !cl.RunUntil(func() bool { return stopped }, cruz.Second) {
		t.Fatal("wa never stopped")
	}
	as := pod.Process(1).Mem()
	want := map[uint64][]byte{}
	for _, pn := range as.PageNumbers(false) {
		want[pn] = append([]byte(nil), as.PageData(pn)...)
	}
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{Incremental: true})
	if err != nil || res.Seq != 2 {
		t.Fatalf("incremental checkpoint: %+v, %v", res, err)
	}
	var img *ckpt.Image
	cl.Nodes[0].Store.Load("wa", 2, true, trace.SpanContext{}, func(i *ckpt.Image, err error) {
		if err != nil {
			t.Fatal(err)
		}
		img = i
	})
	if !cl.RunUntil(func() bool { return img != nil }, cruz.Second) {
		t.Fatal("the merged chain of wa/2 never loaded")
	}
	m := &img.Processes[0].Memory
	if m.NumPages() != len(want) {
		t.Fatalf("merged chain holds %d pages, wa had %d", m.NumPages(), len(want))
	}
	differ := 0
	for i, pn := range m.PageNums {
		if !bytes.Equal(m.Page(i), want[pn]) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d pages of the merged chain differ from wa's memory at the capture", differ, len(want))
	}
	cl.Run(100 * cruz.Millisecond)
	check(t, cl)
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
