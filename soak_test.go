package cruz_test

import (
	"fmt"
	"testing"

	"cruz"
	"cruz/internal/apps/kvstore"
	"cruz/internal/apps/slm"
	"cruz/internal/apps/stream"
	"cruz/internal/batch"
	"cruz/internal/sim"
)

func init() {
	cruz.RegisterProgram(&kvstore.Server{})
	cruz.RegisterProgram(&kvstore.Client{})
	cruz.RegisterProgram(&stream.Sender{})
	cruz.RegisterProgram(&stream.Receiver{})
}

// TestSoakMixedWorkloads runs the whole system at once, the way a real
// cluster would be used: an slm job under the batch scheduler with
// periodic optimized checkpoints, a kvstore service with an external
// client, and a TCP stream — all sharing the network — while the kvstore
// pod migrates between nodes and the slm job crashes and recovers. Every
// application carries its own integrity checks (sequence counters, value
// verification, byte-position stamps); the test asserts none of them ever
// trips.
func TestSoakMixedWorkloads(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 2026})
	if err != nil {
		t.Fatal(err)
	}
	sched := batch.New(cl)

	// 1. slm job on all four nodes, checkpointing every second.
	cfg := slm.Config{
		Workers:             4,
		Steps:               0,
		TotalComputePerStep: 40 * sim.Millisecond,
		StepOverhead:        4 * sim.Millisecond,
		HaloBytes:           16 << 10,
		GridBytes:           2 << 20,
		DirtyPagesPerStep:   32,
		Port:                9200,
	}
	job, err := sched.Submit(batch.JobSpec{
		Name:            "wx",
		Tasks:           4,
		CheckpointEvery: cruz.Second,
		Optimized:       true,
		Make: func(rank, n int, ips []cruz.Addr) cruz.Program {
			return slm.NewWorker(cfg, rank, ips[(rank+1)%n])
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// 2. kvstore service in a pod on node 0 with a native client on the
	// service node.
	dbPod, err := cl.NewPod(0, "db")
	if err != nil {
		t.Fatal(err)
	}
	dbPod.Spawn("kvd", kvstore.NewServer(0))
	kvc := kvstore.NewClient(cruz.AddrPort{Addr: dbPod.IP(), Port: kvstore.DefaultPort})
	cl.Service.Kernel.Spawn("kvc", kvc, 0)

	// 3. TCP stream between pods on nodes 2 and 3.
	rp, err := cl.NewPod(2, "s-recv")
	if err != nil {
		t.Fatal(err)
	}
	recv := stream.NewReceiver(0)
	rp.Spawn("recv", recv)
	sp, err := cl.NewPod(3, "s-send")
	if err != nil {
		t.Fatal(err)
	}
	sp.Spawn("send", stream.NewSender(cruz.AddrPort{Addr: rp.IP(), Port: stream.DefaultPort}))

	slmWorker := func(i int) *slm.Worker {
		p := cl.Pod(fmt.Sprintf("wx-%d", i))
		if p == nil || p.Process(1) == nil {
			t.Fatalf("wx-%d missing", i)
		}
		return p.Process(1).Program().(*slm.Worker)
	}
	healthy := func(when string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if f := slmWorker(i).Fault; f != "" {
				t.Fatalf("%s: slm %d fault: %s", when, i, f)
			}
		}
		if kvc.Fault != "" {
			t.Fatalf("%s: kv client fault: %s", when, kvc.Fault)
		}
		r := cl.Pod("s-recv").Process(1).Program().(*stream.Receiver)
		if r.Fault != "" {
			t.Fatalf("%s: stream fault: %s", when, r.Fault)
		}
	}

	cl.Run(2 * cruz.Second)
	healthy("warmup")
	kvOps := kvc.Done
	streamBytes := cl.Pod("s-recv").Process(1).Program().(*stream.Receiver).Received
	if kvOps == 0 || streamBytes == 0 || slmWorker(0).StepsDone == 0 {
		t.Fatalf("workloads idle: kv=%d stream=%d slm=%d", kvOps, streamBytes, slmWorker(0).StepsDone)
	}

	// Migrate the kvstore pod from node 0 to node 1 while everything
	// else keeps running.
	dbJob, err := cl.DefineJob("db", "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Migrate(dbJob, "db", 1, cruz.MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Run(2 * cruz.Second)
	healthy("after db migration")
	if kvc.Done <= kvOps {
		t.Fatal("kv client stalled after migration")
	}

	// Crash the slm job and recover it from its periodic checkpoints —
	// under the still-running stream and kvstore traffic.
	if job.Checkpoints == 0 {
		t.Fatal("no periodic checkpoints before crash")
	}
	for i := 0; i < 4; i++ {
		cl.Pod(fmt.Sprintf("wx-%d", i)).Destroy()
	}
	if err := job.RecoverFromCrash(); err != nil {
		t.Fatal(err)
	}
	cl.Run(2 * cruz.Second)
	healthy("after slm recovery")

	// Final accounting: everything kept moving.
	finalRecv := cl.Pod("s-recv").Process(1).Program().(*stream.Receiver)
	if finalRecv.Received <= streamBytes {
		t.Fatal("stream stalled across the soak")
	}
	if got := slmWorker(0).StepsDone; got == 0 {
		t.Fatalf("slm at step %d after recovery", got)
	}
	// At most one periodic attempt may have failed: the one the crash
	// interrupted (it aborts cleanly). Anything more is a protocol bug.
	if job.CheckpointErrs > 1 {
		t.Fatalf("periodic checkpoint errors: %d", job.CheckpointErrs)
	}
	t.Logf("soak: kv ops=%d, stream=%d MB, slm steps=%d, checkpoints=%d",
		kvc.Done, finalRecv.Received>>20, slmWorker(0).StepsDone, job.Checkpoints)
}
