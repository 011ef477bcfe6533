package cruz_test

import (
	"fmt"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
)

// ecCluster builds an auto-recovering cluster with 4+2 erasure-coded
// durability, deploys a 3-worker ring on nodes 0..2, and takes one
// deduplicated checkpoint, waiting until every pod's full shard set is
// registered with the coordinator.
func ecCluster(t *testing.T, seed int64) (*cruz.Cluster, []string, *cruz.Job, int) {
	t.Helper()
	ec := cruz.ECParams{M: 4, R: 2}
	cl, err := cruz.New(cruz.Config{
		Nodes: 8, Seed: seed, EC: ec, AutoRecover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 3)
	cl.Run(200 * cruz.Millisecond)
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	shards := ec.M + ec.R
	ok := cl.RunUntil(func() bool {
		for _, name := range names {
			if cl.Coordinator.KnownECShards(name, res.Seq) < shards {
				return false
			}
		}
		return true
	}, 30*cruz.Second)
	if !ok {
		t.Fatal("shard distribution never completed")
	}
	return cl, names, job, res.Seq
}

// runECRecoveryScenario kills one shard holder and then the node hosting
// a pod: with erasure coding no surviving node holds that pod's full
// image, so recovery must pull shard subsets from M live holders and
// reconstruct on the new home. The returned summary captures everything
// determinism should preserve.
func runECRecoveryScenario(t *testing.T, seed int64) string {
	t.Helper()
	cl, names, _, seq := ecCluster(t, seed)

	// Each pod-hosting primary ran one shard exchange per holder and no
	// full replication at all.
	for i := 0; i < 3; i++ {
		st := &cl.Nodes[i].Agent.Stats
		if st.ECDistributions != 6 || st.ECFailures != 0 {
			t.Fatalf("node %d: ECDistributions=%d ECFailures=%d, want 6/0", i, st.ECDistributions, st.ECFailures)
		}
		if st.ECShardBytes <= 0 {
			t.Fatalf("node %d moved no shard bytes", i)
		}
		if st.Replications != 0 {
			t.Fatalf("node %d fell back to replication (%d)", i, st.Replications)
		}
	}

	// Kill a shard holder that hosts no pods (node 4 holds one shard per
	// stripe of wb's set), wait for its lease to expire, then kill wb's
	// own node. Two losses = R; four of wb's six shard positions survive.
	cl.FailNode(4)
	cl.Run(600 * cruz.Millisecond)
	cl.FailNode(1)
	if !cl.AwaitRecovery(1, 30*cruz.Second) {
		t.Fatal("automatic recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	res := cl.Recoveries()[0]
	if res.FailedNode != "node1" || res.Seq != seq {
		t.Fatalf("recovered from %s seq %d, want node1 seq %d", res.FailedNode, res.Seq, seq)
	}
	if len(res.Pods) != 1 || res.Pods[0].Pod != names[1] {
		t.Fatalf("recovered pods: %+v", res.Pods)
	}
	rp := res.Pods[0]
	if !rp.Reconstructed || !rp.Transferred {
		t.Fatalf("expected a reconstructing transfer, got %+v", rp)
	}
	if res.Reconstruct <= 0 || res.Reconstruct > res.Transfer {
		t.Fatalf("reconstruct window %v outside transfer phase %v", res.Reconstruct, res.Transfer)
	}
	if res.TransferBytes <= 0 {
		t.Fatal("reconstruction moved no bytes")
	}
	if res.MTTR != res.Detect+res.Place+res.Transfer+res.Restart {
		t.Fatalf("MTTR %v is not the sum of its phases", res.MTTR)
	}
	target := cl.PodNode(names[1])
	if target == nil || target.Index == 1 || target.Index == 4 {
		t.Fatalf("pod re-homed to %+v", target)
	}
	if target.Agent.Stats.Reconstructs != 1 || target.Agent.Stats.ReconstructedChunks == 0 {
		t.Fatalf("target stats: %+v", target.Agent.Stats)
	}

	// The decoded state is the real checkpoint: the whole ring resumes
	// from seq* and keeps computing with no halo fault.
	before := make(map[string]int)
	for _, name := range names {
		before[name] = cl.Pod(name).Process(1).Program().(*slm.Worker).StepsDone
	}
	cl.Run(500 * cruz.Millisecond)
	for _, name := range names {
		if ringWorker(cl, name).StepsDone <= before[name] {
			t.Fatalf("pod %s stuck after reconstruction", name)
		}
	}
	check(t, cl)
	return fmt.Sprintf("mttr=%v reconstruct=%v bytes=%d to=%s from=%s",
		res.MTTR, res.Reconstruct, res.TransferBytes, rp.To, rp.From)
}

// TestErasureCodedRecovery is the storage tier's tentpole check: with
// 4+2 striping instead of replication, a double node loss (the primary
// and a shard holder) still recovers automatically — the new home
// reconstructs the image from the four surviving shard subsets — and the
// whole scenario is deterministic per seed.
func TestErasureCodedRecovery(t *testing.T) {
	a := runECRecoveryScenario(t, 31)
	b := runECRecoveryScenario(t, 31)
	if a != b {
		t.Fatalf("scenario diverged:\n  %s\n  %s", a, b)
	}
}

// migrateUnderEC runs the standard wb→node3 pre-copy migration while a
// deduplicated checkpoint's durability distribution is still in flight
// (shard fan-out when ec is set, nothing when it is zero), and returns
// the migration result. The checkpoint is NOT awaited: the point is
// that its background traffic coexists with the migration stream.
func migrateUnderEC(t *testing.T, ec cruz.ECParams) *cruz.MigrationResult {
	t.Helper()
	cfg := cruz.Config{Nodes: 8, Seed: 19}
	if ec.Enabled() {
		cfg.EC = ec
	}
	cl, err := cruz.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRingCfg(t, cl, migrateSlm(3))
	cl.Run(300 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: true}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Migrate(job, "wb", 3, cruz.MigrateOptions{
		Precopy: cruz.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(500 * cruz.Millisecond)
	for _, n := range names {
		if ringWorker(cl, n).StepsDone == 0 {
			t.Fatalf("worker %s made no step", n)
		}
	}
	check(t, cl)
	return res
}

// TestECPacingDoesNotSlowMigration is the bandwidth-tier guarantee:
// shard distribution rides the background tier behind the token-bucket
// pacer, below the migration stream — so migrating while an EC fan-out
// is in flight must cost at most 5% in downtime and round time over a
// cluster with durability off entirely.
func TestECPacingDoesNotSlowMigration(t *testing.T) {
	ec := cruz.ECParams{M: 4, R: 2}
	under := migrateUnderEC(t, ec)
	plain := migrateUnderEC(t, cruz.ECParams{})
	if under.Downtime > plain.Downtime+plain.Downtime/20 {
		t.Fatalf("downtime regressed >5%% under EC traffic: %v vs %v", under.Downtime, plain.Downtime)
	}
	if under.Latency > plain.Latency+plain.Latency/20 {
		t.Fatalf("total migration time regressed >5%% under EC traffic: %v vs %v", under.Latency, plain.Latency)
	}
	if under.Rounds != plain.Rounds {
		t.Fatalf("pre-copy converged differently under EC traffic: %d rounds vs %d", under.Rounds, plain.Rounds)
	}
}

// TestECFallbackToReplication: a checkpoint that cannot stripe (no
// dedup) under an EC-configured cluster must fall back to R-way
// replication, preserving the survive-R-losses guarantee.
func TestECFallbackToReplication(t *testing.T) {
	ec := cruz.ECParams{M: 4, R: 2}
	cl, err := cruz.New(cruz.Config{Nodes: 8, Seed: 33, EC: ec, AutoRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 3)
	cl.Run(200 * cruz.Millisecond)
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ok := cl.RunUntil(func() bool {
		for _, name := range names {
			// Commit holder + R fallback replicas.
			if cl.Coordinator.KnownHolders(name, res.Seq) < 1+ec.R {
				return false
			}
		}
		return true
	}, 30*cruz.Second)
	if !ok {
		t.Fatal("fallback replication never completed")
	}
	for i := 0; i < 3; i++ {
		st := &cl.Nodes[i].Agent.Stats
		if st.ECDistributions != 0 {
			t.Fatalf("node %d erasure-coded a non-dedup image", i)
		}
		if st.Replications != uint64(ec.R) {
			t.Fatalf("node %d: Replications=%d, want %d", i, st.Replications, ec.R)
		}
	}
}
