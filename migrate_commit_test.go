package cruz_test

import (
	"errors"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/core"
)

// TestMigrationRollsForwardAfterCommitPoint: once the coordinator holds the
// destination's report, the pod runs there, so a migration that fails
// afterwards must roll forward, not back. The source's link goes down the
// moment the destination reports, the heartbeat lease declares the source's
// node failed — which fails the migration while the source cannot hear —
// and then the link comes back.
// The member must be re-homed to the destination and the destination
// recorded as holder of the migrated image; the source must never roll
// back (its rollback resumes the frozen copy: two pods on one address),
// and its copy must go once its continue gets through.
func TestMigrationRollsForwardAfterCommitPoint(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 11, AutoRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	_, job := deployRingCfg(t, cl, migrateSlm(3))
	cl.Run(300 * cruz.Millisecond)
	src, dst := cl.Nodes[1], cl.Nodes[3]

	var merr error
	var ended cruz.Time
	fired := false
	cl.Coordinator.Migrate(job, "wb", dst.Agent.Addr(), core.MigrateOptions{
		Precopy: core.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32},
	}, func(_ *core.MigrationResult, err error) { merr, fired, ended = err, true, cl.Engine.Now() })
	// The destination resumes the pod and sends its report in one event.
	for dst.Agent.Stats.MigrationsIn == 0 {
		if !cl.Engine.Step() {
			t.Fatal("the event queue ran dry before the destination took over")
		}
	}
	cl.Switch.SetLinkDown(src.NIC, true)
	fault := cl.Engine.Now()
	if !cl.RunUntil(func() bool { return fired }, 10*cruz.Second) {
		t.Fatal("the lease never ended the migration")
	}
	if d := ended.Sub(fault); d > leaseVerdict {
		t.Errorf("migration ended %v after the fault, want within %v", d, leaseVerdict)
	}
	if !errors.Is(merr, core.ErrNodeFailed) {
		t.Fatalf("migration error = %v, want the source's lease expiry", merr)
	}
	cl.Switch.SetLinkDown(src.NIC, false)
	cl.Run(10 * cruz.Second) // TCP's backed-off retransmission reaches the source

	if got := job.Members[1].Agent; got != dst.Agent.Addr() {
		t.Errorf("member wb names %v after the commit point, want the destination %v", got, dst.Agent.Addr())
	}
	seq, ok := dst.Store.LatestSeq("wb")
	if !ok || cl.Coordinator.KnownHolders("wb", seq) == 0 {
		t.Errorf("the destination is not recorded as holder of the migrated image (seq %d, stored %v)", seq, ok)
	}
	if n := src.Agent.Stats.Aborts; n != 0 {
		t.Errorf("the source rolled back %d time(s) after the commit point", n)
	}
	if p := src.Agent.Pod("wb"); p == nil || !p.Destroyed() {
		t.Error("the source's copy of wb survived the migration")
	}
	if p := dst.Agent.Pod("wb"); p == nil || p.Destroyed() || p.Stopped() {
		t.Error("wb is not running on the destination")
	}
	check(t, cl)
}

// TestMigrationUnderTree: a migration's replies are the types a group
// leader's relay aggregates, but they go straight to the root. Migrate a
// group leader's pod and a plain member's pod of a job coordinated as a
// tree, then checkpoint and restart it under the tree: every op completes,
// the ring keeps computing, and every op table empties.
func TestMigrationUnderTree(t *testing.T) {
	const n = 6
	cl, err := cruz.New(cruz.Config{Nodes: n + 2, Seed: 5, GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployWideRing(t, cl, n) // groups {0,1,2} and {3,4,5}, led by nodes 0 and 3
	cl.Run(50 * cruz.Millisecond)
	for _, mv := range []struct {
		pod string
		to  int
	}{{names[0], n}, {names[4], n + 1}} { // a leader's pod, then a plain member's
		if _, err := cl.Migrate(job, mv.pod, mv.to, cruz.MigrateOptions{
			Precopy: cruz.PrecopyConfig{MaxRounds: 4, DirtyThresholdPages: 8},
		}); err != nil {
			t.Fatalf("migrate %s: %v", mv.pod, err)
		}
		if node := cl.PodNode(mv.pod); node == nil || node.Index != mv.to {
			t.Fatalf("pod %s did not re-home to node %d: %+v", mv.pod, mv.to, node)
		}
	}
	cl.Run(20 * cruz.Millisecond)
	ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatalf("checkpoint under the tree after the migrations: %v", err)
	}
	cl.Run(20 * cruz.Millisecond)
	rs, err := cl.Restart(job, 0)
	if err != nil {
		t.Fatalf("restart under the tree after the migrations: %v", err)
	}
	if rs.Seq != ck.Seq {
		t.Fatalf("restarted from seq %d, want the checkpoint's %d", rs.Seq, ck.Seq)
	}
	worker := func(name string) *slm.Worker { return cl.Pod(name).Process(1).Program().(*slm.Worker) }
	steps := make(map[string]int)
	for _, name := range names {
		steps[name] = worker(name).StepsDone
	}
	cl.Run(cruz.Second) // long enough for TCP to resend what the restart dropped
	for _, name := range names {
		if w := worker(name); w.StepsDone <= steps[name] {
			t.Errorf("pod %s after the restart: steps %d -> %d", name, steps[name], w.StepsDone)
		}
	}
	check(t, cl)
}
