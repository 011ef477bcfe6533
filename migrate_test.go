package cruz_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/core"
	"cruz/internal/trace"
)

// migrateSlm is smallSlm with a pre-copy-friendly write profile: a
// bigger grid written more slowly, so a streaming round outruns the
// application's redirty rate and the rounds can converge. (smallSlm
// rewrites its whole 1 MB grid in ~16 steps — faster than any round can
// stream it — which is the workload pre-copy provably cannot help.)
func migrateSlm(workers int) slm.Config {
	cfg := smallSlm(workers)
	cfg.GridBytes = 4 << 20
	cfg.DirtyPagesPerStep = 4
	return cfg
}

// ringWorker resolves a pod's slm rank wherever the pod currently lives.
func ringWorker(cl *cruz.Cluster, name string) *slm.Worker {
	return cl.Pod(name).Process(1).Program().(*slm.Worker)
}

// TestLiveMigration is the tentpole happy path: a ring worker migrates to
// an empty node while its neighbours keep talking to it. The established
// TCP connections must survive the address takeover (the slm halo
// protocol faults on any lost or duplicated byte), the freeze must stay
// in the single-digit-millisecond range the paper's §4.2 design targets,
// and the coordinated machinery must keep working against the re-homed
// member afterwards.
func TestLiveMigration(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRingCfg(t, cl, migrateSlm(3))
	cl.Run(300 * cruz.Millisecond)
	check(t, cl)
	stepsAt := make(map[string]int)
	for _, n := range names {
		if stepsAt[n] = ringWorker(cl, n).StepsDone; stepsAt[n] == 0 {
			t.Fatalf("pod %s made no step before migration", n)
		}
	}

	res, err := cl.Migrate(job, "wb", 3, cruz.MigrateOptions{
		Precopy: cruz.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("migration result: %+v", *res)
	if res.Pod != "wb" || res.From != cl.Nodes[1].Agent.Addr() || res.To != cl.Nodes[3].Agent.Addr() {
		t.Fatalf("result endpoints: %+v", res)
	}
	if res.Rounds < 1 {
		t.Fatalf("expected live pre-copy rounds, got %d", res.Rounds)
	}
	if len(res.RoundPages) != res.Rounds+1 {
		t.Fatalf("RoundPages %v does not cover %d rounds + residual", res.RoundPages, res.Rounds)
	}
	// Convergence: the residual frozen set must be far smaller than the
	// full image round 0 streamed.
	if last, first := res.RoundPages[len(res.RoundPages)-1], res.RoundPages[0]; last*4 > first {
		t.Fatalf("residual %d pages did not converge from %d", last, first)
	}
	if res.BytesStreamed <= 0 || res.Latency <= 0 || res.Messages <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Downtime <= 0 || res.Downtime >= 15*cruz.Millisecond {
		t.Fatalf("downtime %v outside (0, 15ms)", res.Downtime)
	}
	if node := cl.PodNode("wb"); node == nil || node.Index != 3 {
		t.Fatalf("pod did not re-home: %+v", node)
	}
	if out := cl.Nodes[1].Agent.Stats.MigrationsOut; out != 1 {
		t.Fatalf("source MigrationsOut = %d", out)
	}
	if in := cl.Nodes[3].Agent.Stats.MigrationsIn; in != 1 {
		t.Fatalf("destination MigrationsIn = %d", in)
	}

	// The ring keeps computing: every worker — including the migrated one
	// and the two peers holding TCP connections to its moved address —
	// makes progress with no halo fault.
	cl.Run(300 * cruz.Millisecond)
	for _, n := range names {
		if w := ringWorker(cl, n); w.StepsDone <= stepsAt[n] {
			t.Fatalf("pod %s stalled after migration: %d -> %d", n, stepsAt[n], w.StepsDone)
		}
	}
	check(t, cl)

	// The coordinated protocol still works against the re-homed member.
	ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq <= res.Seq {
		t.Fatalf("post-migration checkpoint seq %d not after migration seq %d", ck.Seq, res.Seq)
	}
}

// TestMigrationStateEquivalence is the correctness property: a migrated
// run must converge to the exact same model state as an unmigrated run
// of the same seed. The slm grid is a pure function of steps executed,
// so after both runs quiesce at the same finite step count, every pod's
// resident memory must be byte-identical — any page lost, stale or
// duplicated by the round merge chain shows up here.
// finalRingState runs a finite-step ring to completion and summarises
// every worker: steps, fault and a hash of its whole memory.
func finalRingState(t *testing.T, cl *cruz.Cluster, names []string) string {
	t.Helper()
	done := func() bool {
		for _, n := range names {
			if !ringWorker(cl, n).Done() {
				return false
			}
		}
		return true
	}
	if !cl.RunUntil(done, 10*cruz.Second) {
		t.Fatal("ring did not finish its steps")
	}
	var b bytes.Buffer
	for _, n := range names {
		w := ringWorker(cl, n)
		mem := cl.Pod(n).Process(1).Mem()
		h := fnv.New64a()
		for _, pn := range mem.PageNumbers(false) {
			h.Write(mem.PageData(pn))
		}
		fmt.Fprintf(&b, "%s steps=%d fault=%q pages=%d mem=%016x\n",
			n, w.StepsDone, w.Fault, mem.ResidentPages(), h.Sum64())
	}
	return b.String()
}

func TestMigrationStateEquivalence(t *testing.T) {
	run := func(migrate bool) (string, *cruz.MigrationResult) {
		cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cfg := migrateSlm(3)
		cfg.Steps = 200
		cfg.Linger = true
		names, job := deployRingCfg(t, cl, cfg)
		cl.Run(100 * cruz.Millisecond)
		var res *cruz.MigrationResult
		if migrate {
			res, err = cl.Migrate(job, names[1], 3, cruz.MigrateOptions{
				Precopy: cruz.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return finalRingState(t, cl, names), res
	}
	migrated, res := run(true)
	if res.Rounds < 1 {
		t.Fatalf("migration did not run live rounds: %+v", res)
	}
	control, _ := run(false)
	if migrated != control {
		t.Fatalf("migrated run state diverged from control:\nmigrated:\n%scontrol:\n%s", migrated, control)
	}
}

// TestMigrationDeterministicTrace: two same-seed migration runs produce
// byte-identical timelines and identical results, and every migration
// span closes (the whole operation renders as one finished causal tree).
func TestMigrationDeterministicTrace(t *testing.T) {
	run := func() ([]byte, string) {
		cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 7, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		names, job := deployRingCfg(t, cl, migrateSlm(3))
		cl.Run(250 * cruz.Millisecond)
		res, err := cl.Migrate(job, names[1], 3, cruz.MigrateOptions{
			Dedup:   true,
			Precopy: cruz.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(100 * cruz.Millisecond)
		check(t, cl)
		var tb bytes.Buffer
		if err := trace.WriteTimeline(&tb, cl.Trace().Events()); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), fmt.Sprintf("%+v", *res)
	}
	t1, r1 := run()
	t2, r2 := run()
	if r1 != r2 {
		t.Fatalf("same-seed migration results differ:\n%s\n%s", r1, r2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatalf("same-seed migration timelines differ (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Contains(t1, []byte("migrate")) {
		t.Fatal("timeline has no migrate spans")
	}
}

// TestMigrationAbortRollsBack aborts a migration mid-round: the source
// rolls the pre-copy epoch back and the pod keeps running at home, no op
// leaks, and neither store retains any round image.
func TestMigrationAbortRollsBack(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, job := deployRing(t, cl, 3)
	cl.Run(200 * cruz.Millisecond)
	stepsAt := ringWorker(cl, "wb").StepsDone

	if err := cl.Coordinator.AbortMigration(job.Name); !errors.Is(err, core.ErrNoMigration) {
		t.Fatalf("abort with nothing in flight = %v", err)
	}

	var merr error
	fired := false
	cl.Coordinator.Migrate(job, "wb", cl.Nodes[3].Agent.Addr(), core.MigrateOptions{
		Precopy: core.PrecopyConfig{MaxRounds: 8},
	}, func(r *core.MigrationResult, err error) { merr, fired = err, true })
	cl.Run(5 * cruz.Millisecond) // into round 0's capture/save, well before convergence
	if fired {
		t.Fatal("migration finished before the abort could land")
	}
	if err := cl.Coordinator.AbortMigration(job.Name); err != nil {
		t.Fatal(err)
	}
	if !cl.RunUntil(func() bool { return fired }, 5*cruz.Second) {
		t.Fatal("abort did not complete the migration op")
	}
	if !errors.Is(merr, core.ErrAborted) {
		t.Fatalf("migration error = %v, want ErrAborted", merr)
	}

	// Rollback: pod still at home, resumed, progressing, no residue.
	if node := cl.PodNode("wb"); node == nil || node.Index != 1 {
		t.Fatalf("aborted migration moved the pod: %+v", node)
	}
	cl.Run(200 * cruz.Millisecond)
	if w := ringWorker(cl, "wb"); w.StepsDone <= stepsAt {
		t.Fatalf("pod wb stalled after abort: %d -> %d", stepsAt, w.StepsDone)
	}
	check(t, cl)
	for i, node := range cl.Nodes {
		if seq, ok := node.Store.LatestSeq("wb"); ok {
			t.Errorf("node %d store kept aborted round image seq %d", i, seq)
		}
	}
}

// TestMigrationDestNodeDeath kills the destination mid-migration: the
// lease machinery must fail the migration, the source must roll back and
// keep its pod, and the PR 3 auto-recovery must re-home the job members
// the dead node actually hosted. The job then keeps computing.
func TestMigrationDestNodeDeath(t *testing.T) {
	cl, names, job := replicatedCluster(t, cruz.Config{
		Nodes: 3, Seed: 9, Replicas: 1, AutoRecover: true,
	}, 3)

	var merr error
	fired := false
	cl.Coordinator.Migrate(job, names[1], cl.Nodes[2].Agent.Addr(), core.MigrateOptions{
		Precopy: core.PrecopyConfig{MaxRounds: 8},
	}, func(r *core.MigrationResult, err error) { merr, fired = err, true })
	cl.Run(3 * cruz.Millisecond)
	if fired {
		t.Fatal("migration finished before the failure")
	}
	cl.FailNode(2)
	if !cl.RunUntil(func() bool { return fired }, 10*cruz.Second) {
		t.Fatal("destination death did not fail the migration")
	}
	if !errors.Is(merr, core.ErrNodeFailed) {
		t.Fatalf("migration error = %v, want ErrNodeFailed", merr)
	}

	// The dead node hosted a ring member, so auto-recovery restarts the
	// job from the replicated checkpoint and re-homes that member.
	if !cl.AwaitRecovery(1, 10*cruz.Second) {
		t.Fatalf("no recovery after destination death: %v", cl.RecoveryErr())
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatal(err)
	}
	if node := cl.PodNode(names[2]); node == nil || node.Index == 2 {
		t.Fatalf("pod %s not re-homed off the dead node: %+v", names[2], node)
	}

	steps := make(map[string]int)
	for _, n := range names {
		steps[n] = ringWorker(cl, n).StepsDone
	}
	cl.Run(300 * cruz.Millisecond)
	for _, n := range names {
		if w := ringWorker(cl, n); w.StepsDone <= steps[n] {
			t.Fatalf("pod %s stalled after recovery: %d -> %d", n, steps[n], w.StepsDone)
		}
	}
	check(t, cl)
}

// TestStopCopyMigrationBaseline: MaxRounds == 0 drives the same protocol
// as pure stop-and-copy — one freeze covering the whole image. It must
// still work (TCP survives) but with an order-of-magnitude larger
// downtime than the live path, which is the ablation the paper's design
// argues for.
func TestStopCopyMigrationBaseline(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 3)
	cl.Run(300 * cruz.Millisecond)
	res, err := cl.Migrate(job, "wb", 3, cruz.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.RoundPages) != 1 {
		t.Fatalf("stop-and-copy ran rounds: %+v", res)
	}
	if res.Downtime < 15*cruz.Millisecond {
		t.Fatalf("stop-and-copy downtime %v implausibly small for a full image", res.Downtime)
	}
	cl.Run(300 * cruz.Millisecond)
	for _, n := range names {
		if w := ringWorker(cl, n); w.StepsDone == 0 {
			t.Fatalf("pod %s made no step after stop-copy migration", n)
		}
	}
	check(t, cl)
}

// migrateAfterCheckpoint builds a 4-node ring cluster, checkpoints it
// (waiting for any configured replication to land on the coordinator's
// holder registry), runs on a little, and migrates wb to node 3. With
// stale set, node 3 then drops its replica of the checkpoint, so the
// registry names a holder that no longer holds it; after the migration
// the job restarts from that checkpoint.
func migrateAfterCheckpoint(t *testing.T, replicas int, stale bool) *cruz.MigrationResult {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 17, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRingCfg(t, cl, migrateSlm(3))
	cl.Run(300 * cruz.Millisecond)
	ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replicas > 0 {
		ok := cl.RunUntil(func() bool {
			return cl.Coordinator.KnownHolders("wb", ck.Seq) >= replicas+1
		}, 10*cruz.Second)
		if !ok {
			t.Fatal("replication never completed")
		}
	}
	if stale {
		cl.Nodes[3].Store.Discard("wb", ck.Seq)
	}
	cl.Run(200 * cruz.Millisecond)
	res, err := cl.Migrate(job, "wb", 3, cruz.MigrateOptions{
		Precopy: cruz.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(300 * cruz.Millisecond)
	for _, n := range names {
		if w := ringWorker(cl, n); w.StepsDone == 0 {
			t.Fatalf("pod %s made no step after migration", n)
		}
	}
	if node := cl.PodNode("wb"); node == nil || node.Index != 3 {
		t.Fatalf("pod did not re-home: %+v", node)
	}
	check(t, cl)
	if stale {
		if _, err := cl.Restart(job, 0); err != nil {
			t.Fatalf("restart after a migration on a stale record: %v", err)
		}
		cl.Run(200 * cruz.Millisecond)
		check(t, cl)
	}
	return res
}

// TestMigrationReusesReplicatedBase: when background durability already
// placed the pod's newest checkpoint chain on the destination, the
// coordinator's holder registry says so and round 0 must stream only the
// delta against that shared base instead of the full image — the
// identical scenario without replication is the control. When the record
// is stale (the destination dropped its copy), the migration still lands
// and the job restarts: the base crosses through the destination's want,
// so more streams than when the base was reused.
func TestMigrationReusesReplicatedBase(t *testing.T) {
	// Replicas=2 puts wb's chain on nodes 2 and 3 (node 1's next ring
	// peers) — node 3 is the migration destination.
	reused := migrateAfterCheckpoint(t, 2, false)
	control := migrateAfterCheckpoint(t, 0, false)
	if reused.BytesStreamed <= 0 || control.BytesStreamed <= 0 {
		t.Fatalf("accounting: reused=%d control=%d", reused.BytesStreamed, control.BytesStreamed)
	}
	if reused.BytesStreamed*2 >= control.BytesStreamed {
		t.Fatalf("base reuse saved too little: %d vs control %d bytes",
			reused.BytesStreamed, control.BytesStreamed)
	}
	if stale := migrateAfterCheckpoint(t, 2, true); stale.BytesStreamed <= reused.BytesStreamed {
		t.Fatalf("stale record streamed %d bytes, no more than the reused base's %d",
			stale.BytesStreamed, reused.BytesStreamed)
	}
}

// TestIncrementalCheckpointAfterMigrateRestarts: a migration consumes a
// block of sequence numbers only the migrated pod stores, so the next
// incremental checkpoint has no base at seq-1 on the other pods. Each agent
// must fall back to a full capture there (and the migrated pod, re-homed,
// chains on what its new store holds), so the job still restarts — to the
// state a run that never checkpointed, migrated or restarted reaches.
func TestIncrementalCheckpointAfterMigrateRestarts(t *testing.T) {
	run := func(disturb bool) string {
		cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cfg := migrateSlm(4)
		cfg.Steps = 200
		cfg.Linger = true
		names, job := deployRingCfg(t, cl, cfg)
		cl.Run(100 * cruz.Millisecond)
		if disturb {
			if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Migrate(job, names[2], 0, cruz.MigrateOptions{
				Dedup: true, Precopy: cruz.PrecopyConfig{MaxRounds: 4, DirtyThresholdPages: 8},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{Incremental: true, Dedup: true}); err != nil {
				t.Fatal(err)
			}
			cl.Run(50 * cruz.Millisecond)
			if _, err := cl.Restart(job, 0); err != nil {
				t.Fatalf("restart from the post-migration incremental checkpoint: %v", err)
			}
		}
		return finalRingState(t, cl, names)
	}
	if disturbed, control := run(true), run(false); disturbed != control {
		t.Fatalf("restarted run state diverged from control:\nrestarted:\n%scontrol:\n%s", disturbed, control)
	}
}

// TestMigrationSkipsOtherFormBase is the migration half of the gap-8
// regression: the round-0 base reuse may only pick a replicated checkpoint
// stored in the form the rounds will be. Reusing a blob-form base for
// deduplicated rounds (or the reverse) chained the first round into an
// image of the other form, and the migration failed outright.
func TestMigrationSkipsOtherFormBase(t *testing.T) {
	for _, tc := range []struct {
		name      string
		baseDedup bool
	}{
		{"blob base, dedup rounds", false},
		{"dedup base, blob rounds", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := cruz.New(cruz.Config{Nodes: 3, Seed: 17, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			names, job := deployRingCfg(t, cl, migrateSlm(3))
			cl.Run(300 * cruz.Millisecond)
			ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: tc.baseDedup})
			if err != nil {
				t.Fatal(err)
			}
			if !cl.RunUntil(func() bool { return cl.Coordinator.KnownHolders("wb", ck.Seq) >= 3 }, 10*cruz.Second) {
				t.Fatal("replication never completed")
			}
			if _, err := cl.Migrate(job, "wb", 2, cruz.MigrateOptions{
				Dedup: !tc.baseDedup, Precopy: cruz.PrecopyConfig{MaxRounds: 4, DirtyThresholdPages: 8},
			}); err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if node := cl.PodNode("wb"); node == nil || node.Index != 2 {
				t.Fatalf("pod did not re-home: %+v", node)
			}
			cl.Run(100 * cruz.Millisecond)
			if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{Incremental: true, Dedup: !tc.baseDedup}); err != nil {
				t.Fatalf("checkpoint after the migration: %v", err)
			}
			cl.Run(50 * cruz.Millisecond)
			if _, err := cl.Restart(job, 0); err != nil {
				t.Fatalf("restart after the migration: %v", err)
			}
			cl.Run(200 * cruz.Millisecond)
			for _, n := range names {
				if w := ringWorker(cl, n); w.StepsDone == 0 {
					t.Fatalf("pod %s made no step after restart", n)
				}
			}
			check(t, cl)
		})
	}
}

// TestRestartAfterMigrate: Restart(job, 0) straight after a migration
// restarts from the last checkpoint, which the migrated pod's new home never
// held. Like a recovery with nothing dead, the restart fetches the image
// onto that home from a live holder before its fan-out — and the job then
// ends where a run that never checkpointed, migrated or restarted ends.
func TestRestartAfterMigrate(t *testing.T) {
	run := func(disturb bool) string {
		cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cfg := migrateSlm(3)
		cfg.Steps = 200
		cfg.Linger = true
		names, job := deployRingCfg(t, cl, cfg)
		cl.Run(100 * cruz.Millisecond)
		if disturb {
			ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Migrate(job, "wb", 3, cruz.MigrateOptions{}); err != nil {
				t.Fatal(err)
			}
			res, err := cl.Restart(job, 0)
			if err != nil {
				t.Fatalf("restart straight after the migration: %v", err)
			}
			if res.Seq != ck.Seq {
				t.Fatalf("restarted from seq %d, want the checkpoint's %d", res.Seq, ck.Seq)
			}
			if node := cl.PodNode("wb"); node == nil || node.Index != 3 {
				t.Fatalf("the restart moved wb off its new home: %+v", node)
			}
			check(t, cl)
		}
		return finalRingState(t, cl, names)
	}
	if disturbed, control := run(true), run(false); disturbed != control {
		t.Fatalf("restarted run state diverged from control:\nrestarted:\n%scontrol:\n%s", disturbed, control)
	}
}
