package cruz_test

import (
	"errors"
	"fmt"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/core"
)

// replicatedCluster builds an auto-recovering ring cluster and takes one
// fully replicated checkpoint.
func replicatedCluster(t *testing.T, cfg cruz.Config, n int) (*cruz.Cluster, []string, *cruz.Job) {
	t.Helper()
	cl, err := cruz.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, n)
	cl.Run(200 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	// Replication runs off the critical path; wait for every agent to
	// finish streaming its pod's image before pulling the plug.
	ok := cl.RunUntil(func() bool {
		for i := 0; i < n; i++ {
			if cl.Nodes[i].Agent.Stats.Replications < uint64(cfg.Replicas) {
				return false
			}
		}
		return true
	}, 10*cruz.Second)
	if !ok {
		t.Fatal("replication never completed")
	}
	return cl, names, job
}

// runRecoveryScenario is one full kill-and-recover pass; the returned
// summary string captures everything determinism should preserve.
func runRecoveryScenario(t *testing.T, seed int64) string {
	t.Helper()
	cl, names, _ := replicatedCluster(t, cruz.Config{
		Nodes: 3, Seed: seed, Replicas: 1, AutoRecover: true,
	}, 3)
	stepsAt := cl.Pod(names[0]).Process(1).Program().(*slm.Worker).StepsDone

	cl.FailNode(1)
	if !cl.AwaitRecovery(1, 10*cruz.Second) {
		t.Fatal("automatic recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	res := cl.Recoveries()[0]
	if res.FailedNode != "node1" || res.Seq != 1 {
		t.Fatalf("recovered from %s seq %d, want node1 seq 1", res.FailedNode, res.Seq)
	}
	if res.Detect <= 0 || res.Place <= 0 || res.Restart <= 0 || res.MTTR <= 0 {
		t.Fatalf("phases not reported: %+v", res)
	}
	if res.MTTR != res.Detect+res.Place+res.Transfer+res.Restart {
		t.Fatalf("MTTR %v is not the sum of its phases", res.MTTR)
	}
	// The next ring peer already replicates the failed pod's image, so
	// recovery needs no image transfer at all.
	if res.Transfer != 0 || res.TransferBytes != 0 {
		t.Fatalf("expected zero-transfer recovery, got %v / %d bytes", res.Transfer, res.TransferBytes)
	}
	if len(res.Pods) != 1 || res.Pods[0].Pod != names[1] || res.Pods[0].Transferred {
		t.Fatalf("recovered pods: %+v", res.Pods)
	}
	// The pod was re-homed off the failed node with no manual
	// CopyImages/MovePod.
	if n := cl.PodNode(names[1]); n == cl.Nodes[1] {
		t.Fatal("failed pod still assigned to the dead node")
	}

	// The whole job rolled back to seq 1 and must make progress again.
	cl.Run(500 * cruz.Millisecond)
	for _, name := range names {
		if w := ringWorker(cl, name); w.StepsDone <= stepsAt {
			t.Fatalf("pod %s stuck after recovery: steps %d <= %d", name, w.StepsDone, stepsAt)
		}
	}
	check(t, cl)
	return fmt.Sprintf("mttr=%v detect=%v place=%v transfer=%v restart=%v to=%s",
		res.MTTR, res.Detect, res.Place, res.Transfer, res.Restart, res.Pods[0].To)
}

// TestAutoRecoveryAfterNodeFailure is the end-to-end tentpole check:
// kill a node mid-run and the job resumes on survivors automatically,
// identically for the same seed, across two different seeds.
func TestAutoRecoveryAfterNodeFailure(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		a := runRecoveryScenario(t, seed)
		b := runRecoveryScenario(t, seed)
		if a != b {
			t.Fatalf("seed %d diverged:\n  %s\n  %s", seed, a, b)
		}
	}
}

// TestTreeRecoveryAfterLeaderFailure is the recovery path under the
// hierarchical coordinator, losing the node the tree leans on: with groups
// of four over eight pods, node 4 leads the second group. Detection,
// placement and the fetch are the root's own; the restart that follows is
// a tree op whose second group needs a leader that is still alive. It must
// commit, the ring must advance, nothing may leak, and the next tree
// checkpoint of the re-homed job must succeed.
func TestTreeRecoveryAfterLeaderFailure(t *testing.T) {
	const n, leader = 8, 4
	cl, names, job := replicatedCluster(t, cruz.Config{
		Nodes: n, Seed: 9, Replicas: 1, AutoRecover: true, GroupSize: 4,
	}, n)
	stepsAt := cl.Pod(names[0]).Process(1).Program().(*slm.Worker).StepsDone

	cl.FailNode(leader)
	if !cl.AwaitRecovery(1, 10*cruz.Second) {
		t.Fatal("automatic recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	res := cl.Recoveries()[0]
	if res.Seq != 1 || res.Restart <= 0 || len(res.Pods) != 1 || res.Pods[0].Pod != names[leader] {
		t.Fatalf("recovery: %+v", res)
	}
	if cl.PodNode(names[leader]) == cl.Nodes[leader] {
		t.Fatal("the leader's pod is still assigned to the dead node")
	}
	cl.Run(500 * cruz.Millisecond)
	for _, name := range names {
		if w := ringWorker(cl, name); w.StepsDone <= stepsAt {
			t.Fatalf("pod %s after recovery: steps %d (was %d)", name, w.StepsDone, stepsAt)
		}
	}
	check(t, cl)
	next, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil || next.Seq <= res.Seq {
		t.Fatalf("post-recovery tree checkpoint: %+v, %v", next, err)
	}
	if next.Messages >= 4*n {
		t.Errorf("post-recovery checkpoint cost the root %d messages: not a tree op (flat is %d)", next.Messages, 4*n)
	}
}

// TestFailNodeMidCheckpointAborts: a node failure during the two-phase
// exchange aborts the checkpoint cleanly — survivors resume, no ops leak,
// and after automatic recovery the next checkpoint succeeds.
func TestFailNodeMidCheckpointAborts(t *testing.T) {
	cl, names, job := replicatedCluster(t, cruz.Config{
		Nodes: 3, Seed: 11, Replicas: 1, AutoRecover: true,
	}, 3)

	var cpErr error
	cpDone := false
	cl.Coordinator.Checkpoint(job, cruz.CheckpointOptions{}, func(_ *cruz.CheckpointResult, err error) {
		cpErr, cpDone = err, true
	})
	cl.FailNode(1)
	if !cl.RunUntil(func() bool { return cpDone }, 10*cruz.Second) {
		t.Fatal("in-flight checkpoint never resolved after node failure")
	}
	if !errors.Is(cpErr, core.ErrNodeFailed) {
		t.Fatalf("checkpoint error = %v, want ErrNodeFailed", cpErr)
	}
	if !cl.AwaitRecovery(1, 10*cruz.Second) {
		t.Fatal("recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	// The aborted attempt left nothing behind on any survivor.
	check(t, cl)
	cl.Run(100 * cruz.Millisecond)
	// The next checkpoint of the re-homed job succeeds.
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	if res.Seq <= 1 {
		t.Fatalf("post-recovery checkpoint seq = %d", res.Seq)
	}
	// node0's offer to the dead node1 is still waiting out its timeout
	// here, so only the pods are checked.
	cl.Run(200 * cruz.Millisecond)
	for _, name := range names {
		if w := ringWorker(cl, name); w.Fault != "" {
			t.Fatalf("pod %s fault: %q", name, w.Fault)
		}
	}
}

// TestFlushCheckpointFailsOnLeaseExpiry: under AutoRecover the flushing
// coordinator leases its job's agents as the Cruz coordinator leases its
// nodes. A node that dies 1 ms into a flushing checkpoint fails it with
// core.ErrNodeFailed within a lease and two heartbeats, the survivors'
// pods resume, nothing is left open, and the next flushing checkpoint of
// the job fails at once. With no judge of silence the checkpoint ran for
// ten virtual minutes before the facade gave up, and left the survivors
// stopped with every op open.
func TestFlushCheckpointFailsOnLeaseExpiry(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 3, AutoRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	names := spawnRing(t, cl, smallSlm(3))
	fjob, err := cl.DefineFlushJob("fring", names...)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(200 * cruz.Millisecond)
	var failedAt cruz.Time
	cl.Engine.Schedule(cruz.Millisecond, func() {
		failedAt = cl.Engine.Now()
		cl.FailNode(1)
	})
	_, err = cl.FlushCheckpoint(fjob)
	if !errors.Is(err, core.ErrNodeFailed) {
		t.Fatalf("flushing checkpoint across the failure of node1: %v, want core.ErrNodeFailed", err)
	}
	if d, bound := cl.Engine.Now().Sub(failedAt), core.DefaultLeaseTimeout+2*core.DefaultHeartbeatEvery; d > bound {
		t.Errorf("the checkpoint failed %v after node1 did, want within %v", d, bound)
	}
	cl.Run(100 * cruz.Millisecond)
	for _, name := range []string{names[0], names[2]} {
		if cl.Pod(name).Stopped() {
			t.Errorf("surviving pod %s is still stopped", name)
		}
	}
	check(t, cl)
	before := cl.Engine.Now()
	if _, err := cl.FlushCheckpoint(fjob); !errors.Is(err, core.ErrNodeFailed) || cl.Engine.Now() != before {
		t.Fatalf("next flushing checkpoint: %v after %v, want core.ErrNodeFailed at once", err, cl.Engine.Now().Sub(before))
	}
}

// TestWatchingAnotherJobKeepsASilentNodesLease: defining and so watching a
// second job while node1 is silent does not extend node1's lease. It is
// declared failed at the same virtual time, and the recovery reports the
// same Detect, with or without the second job. Watch used to stamp every
// node's last pong, so the second job put off the verdict by the 250 ms
// since the failure and Detect under-reported that much silence.
func TestWatchingAnotherJobKeepsASilentNodesLease(t *testing.T) {
	run := func(second bool) (declared cruz.Time, detect cruz.Duration) {
		cl, _, _ := replicatedCluster(t, cruz.Config{Nodes: 4, Replicas: 1, AutoRecover: true}, 3)
		if _, err := cl.NewPod(3, "solo"); err != nil {
			t.Fatal(err)
		}
		cl.FailNode(1)
		if second {
			cl.Run(250 * cruz.Millisecond)
			if _, err := cl.DefineJob("solo", "solo"); err != nil {
				t.Fatal(err)
			}
		}
		if !cl.AwaitRecovery(1, 10*cruz.Second) {
			t.Fatal("recovery never completed")
		}
		if err := cl.RecoveryErr(); err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		for _, d := range cl.FlightRecorder().FlightDumps() {
			if d.Trigger == "lease.expiry" {
				declared = d.At
			}
		}
		return declared, cl.Recoveries()[0].Detect
	}
	alone, aloneDetect := run(false)
	with, withDetect := run(true)
	if alone == 0 || with != alone || withDetect != aloneDetect {
		t.Fatalf("node1 declared at %v with Detect %v alone, at %v with Detect %v with a second job watched; want the same",
			alone, aloneDetect, with, withDetect)
	}
}

// TestRecoveryDeterministicTrace: two identical recovery runs produce
// identical virtual-time traces, event for event.
func TestRecoveryDeterministicTrace(t *testing.T) {
	run := func() []string {
		cl, names, _ := replicatedCluster(t, cruz.Config{
			Nodes: 3, Seed: 17, Replicas: 1, AutoRecover: true, Trace: true,
		}, 3)
		_ = names
		cl.FailNode(2)
		if !cl.AwaitRecovery(1, 10*cruz.Second) {
			t.Fatal("recovery never completed")
		}
		cl.Run(100 * cruz.Millisecond)
		evs := cl.Trace().Events()
		out := make([]string, len(evs))
		for i, e := range evs {
			out[i] = fmt.Sprintf("%d %d %s %s %s", int64(e.At), e.Kind, e.Node, e.Cat, e.Name)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at event %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestFirstIncrementalCheckpointReplicates is the regression for a first
// checkpoint taken with Incremental set: it used to chain to sequence 0,
// which no store holds, so every replication of it failed with "no such
// image". With no usable base the agent must capture a full image.
func TestFirstIncrementalCheckpointReplicates(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 3, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, job := deployRing(t, cl, 3)
	cl.Run(200 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{Incremental: true}); err != nil {
		t.Fatal(err)
	}
	cl.Run(2 * cruz.Second)
	for i, n := range cl.Nodes {
		if st := n.Agent.Stats; st.Replications != 1 || st.ReplFailures != 0 {
			t.Errorf("node%d: %d replications, %d failures, want 1 and 0", i, st.Replications, st.ReplFailures)
		}
	}
	// The replicated image restarts: it is a full one.
	if _, err := cl.Restart(job, 0); err != nil {
		t.Fatalf("restart from the first checkpoint: %v", err)
	}
}

// TestCheckpointNeverChainsOntoOtherForm is the gap-8 regression: a pod's
// chain never mixes stored forms, so an incremental checkpoint whose
// predecessor was saved in the other form (blob vs deduplicated) has no
// usable base and must capture full. It used to chain anyway: the
// checkpoint committed, then every replication of it failed and the job
// could not restart ("no such image", walking a manifest chain into a blob).
func TestCheckpointNeverChainsOntoOtherForm(t *testing.T) {
	blob, dedup := cruz.CheckpointOptions{Incremental: true}, cruz.CheckpointOptions{Incremental: true, Dedup: true}
	for _, tc := range []struct {
		name          string
		first, second cruz.CheckpointOptions
	}{
		{"blob then dedup", blob, dedup},
		{"dedup then blob", dedup, blob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := cruz.New(cruz.Config{Nodes: 3, Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			names, job := deployRing(t, cl, 3)
			cl.Run(200 * cruz.Millisecond)
			if _, err := cl.Checkpoint(job, tc.first); err != nil {
				t.Fatal(err)
			}
			cl.Run(200 * cruz.Millisecond)
			ck, err := cl.Checkpoint(job, tc.second)
			if err != nil {
				t.Fatal(err)
			}
			cl.Run(2 * cruz.Second)
			for i, n := range cl.Nodes {
				offer, err := n.Store.ExportOffer(names[i], ck.Seq)
				if err != nil || len(offer.Chain) != 1 || offer.Dedup != tc.second.Dedup {
					t.Errorf("node%d: second checkpoint is %+v (%v), want a full image in its own form", i, offer, err)
				}
				if st := n.Agent.Stats; st.Replications != 2 || st.ReplFailures != 0 {
					t.Errorf("node%d: %d replications, %d failures, want 2 and 0", i, st.Replications, st.ReplFailures)
				}
			}
			if _, err := cl.Restart(job, 0); err != nil {
				t.Fatalf("restart from the second checkpoint: %v", err)
			}
			before := ringWorker(cl, names[0]).StepsDone
			cl.Run(200 * cruz.Millisecond)
			if w := ringWorker(cl, names[0]); w.StepsDone <= before {
				t.Fatalf("ring did not advance after restart: steps %d -> %d", before, w.StepsDone)
			}
			check(t, cl)
		})
	}
}

// TestHealedPartitionReplicatesOnce: a replica partitioned from its source
// during a checkpoint receives the image once the link heals. The offer
// waits in TCP across the partition, so the spare answers one offer and
// writes the image once — a re-sent offer would be answered too, and the
// image written twice.
func TestHealedPartitionReplicatesOnce(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 3, Spares: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 3)
	cl.Run(200 * cruz.Millisecond)
	spare := cl.Nodes[3] // node2's first ring peer: it holds names[2]'s replica
	cl.Switch.SetLinkDown(spare.NIC, true)
	ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Heal inside the offer's deadline but after a re-send would have gone.
	cl.Run(20 * cruz.Second)
	cl.Switch.SetLinkDown(spare.NIC, false)
	cl.Run(80 * cruz.Second)
	var image int64
	for _, r := range ck.PerPod {
		if r.Pod == names[2] {
			image = r.ImageBytes
		}
	}
	if got := spare.Kernel.Disk().Stats.BytesWritten; got != uint64(image) {
		t.Errorf("the spare wrote %d B for one %d B image", got, image)
	}
	check(t, cl)
}
