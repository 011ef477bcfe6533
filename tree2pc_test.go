package cruz_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/coord"
	"cruz/internal/core"
	"cruz/internal/sim"
	"cruz/internal/trace"
)

// Hierarchical (two-level tree) coordination tests: the ISSUE's
// acceptance is equivalence — same commit/abort decisions as the flat
// fan-out under the same seed, byte-identical traces across same-seed
// tree runs — plus the O(√N) root message scaling that motivates the
// tree in the first place.

// lightSlm is a reduced workload for wide clusters: small grids keep
// the n=64 image writes cheap while still exercising every pod.
func lightSlm(workers int) slm.Config {
	return slm.Config{
		Workers:             workers,
		Steps:               0,
		TotalComputePerStep: 2 * sim.Millisecond,
		StepOverhead:        200 * sim.Microsecond,
		HaloBytes:           1 << 10,
		GridBytes:           64 << 10,
		DirtyPagesPerStep:   4,
		Port:                9300,
	}
}

// deployWideRing places one light slm worker pod per node, with
// zero-padded names so member order is stable and readable.
func deployWideRing(t testing.TB, cl *cruz.Cluster, n int) ([]string, *cruz.Job) {
	t.Helper()
	cfg := lightSlm(n)
	names := make([]string, n)
	ips := make([]cruz.Addr, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("w%03d", i)
		pod, err := cl.NewPod(i, names[i])
		if err != nil {
			t.Fatal(err)
		}
		ips[i] = pod.IP()
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

// ckptCycle builds a cluster, runs one checkpoint + crash + restart
// cycle, and returns the results plus post-restart worker progress. An
// incremental checkpoint is taken as the second of its chain.
func ckptCycle(t *testing.T, n, groupSize int, seed int64, opts cruz.CheckpointOptions) (*cruz.CheckpointResult, *cruz.RestartResult, int) {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: n, Seed: seed, GroupSize: groupSize})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployWideRing(t, cl, n)
	cl.Run(50 * cruz.Millisecond)
	if opts.Incremental {
		if _, err := cl.Checkpoint(job, opts); err != nil {
			t.Fatal(err)
		}
		cl.Run(20 * cruz.Millisecond)
	}
	res, err := cl.Checkpoint(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		cl.Pod(name).Destroy()
	}
	rres, err := cl.Restart(job, res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(100 * cruz.Millisecond)
	check(t, cl)
	return res, rres, ringWorker(cl, names[0]).StepsDone
}

// TestTreeFlatEquivalence runs the identical seeded workload under the
// flat fan-out and the tree and demands the same protocol outcomes:
// same committed sequence, a working restart, and the same application
// progress afterwards. The root's message count must shrink under the
// tree — that is its entire point.
func TestTreeFlatEquivalence(t *testing.T) {
	const n = 8
	for _, opts := range []cruz.CheckpointOptions{
		{},
		{Optimized: true},
		{COW: true},
		{COW: true, Precopy: cruz.PrecopyConfig{MaxRounds: 4, DirtyThresholdPages: 32}},
		{Incremental: true, Dedup: true},
	} {
		flatRes, flatR, flatSteps := ckptCycle(t, n, 0, 11, opts)
		treeRes, treeR, treeSteps := ckptCycle(t, n, coord.GroupSizeFor(n), 11, opts)
		if flatRes.Seq != treeRes.Seq || flatR.Seq != treeR.Seq {
			t.Fatalf("opts %+v: committed seqs diverged: flat ckpt=%d restart=%d, tree ckpt=%d restart=%d",
				opts, flatRes.Seq, flatR.Seq, treeRes.Seq, treeR.Seq)
		}
		// The tree changes latencies (one extra hop), never decisions: the
		// restarted ring must make progress either way, but step counts at
		// a fixed virtual deadline may differ by the hop's worth of time.
		if flatSteps == 0 || treeSteps == 0 {
			t.Errorf("opts %+v: ring stuck after restart: flat %d steps, tree %d", opts, flatSteps, treeSteps)
		}
		if treeRes.Messages >= flatRes.Messages {
			t.Errorf("opts %+v: tree root messages %d not below flat %d", opts, treeRes.Messages, flatRes.Messages)
		}
	}
}

// TestTreeMessageScalingN64 pins the asymptotic claim at n=64: the flat
// root exchanges Θ(N) control messages per op, the tree root Θ(√N).
// With size-8 groups the root talks to 8 leaders instead of 64 members,
// so tree messages must come in under a quarter of flat.
func TestTreeMessageScalingN64(t *testing.T) {
	if testing.Short() {
		t.Skip("n=64 cluster in -short mode")
	}
	const n = 64
	flatRes, _, _ := ckptCycle(t, n, 0, 5, cruz.CheckpointOptions{})
	treeRes, _, _ := ckptCycle(t, n, coord.GroupSizeFor(n), 5, cruz.CheckpointOptions{})
	if flatRes.Seq != treeRes.Seq {
		t.Fatalf("committed seqs diverged at n=64: flat %d, tree %d", flatRes.Seq, treeRes.Seq)
	}
	if treeRes.Messages*4 > flatRes.Messages {
		t.Errorf("tree root messages %d, want < 1/4 of flat %d", treeRes.Messages, flatRes.Messages)
	}
}

// treeTracedCycle is the n=64 determinism probe: a full traced
// checkpoint + crash + restart cycle under the tree coordinator,
// returning both exporter outputs.
func treeTracedCycle(t *testing.T, seed int64) (chrome, timeline []byte) {
	t.Helper()
	const n = 64
	cl, err := cruz.New(cruz.Config{
		Nodes: n, Seed: seed, Trace: true,
		GroupSize: coord.GroupSizeFor(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployWideRing(t, cl, n)
	cl.Run(30 * cruz.Millisecond)
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		cl.Pod(name).Destroy()
	}
	if _, err := cl.Restart(job, res.Seq); err != nil {
		t.Fatal(err)
	}
	cl.Run(30 * cruz.Millisecond)
	check(t, cl)
	tr := cl.Trace()
	var cb, tb bytes.Buffer
	if err := trace.WriteChromeTrace(&cb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTimeline(&tb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), tb.Bytes()
}

// TestTreeTraceDeterminismN64: two fresh same-seed clusters at n=64
// under the tree coordinator export byte-identical traces, and those
// traces actually contain the relay layer.
func TestTreeTraceDeterminismN64(t *testing.T) {
	if testing.Short() {
		t.Skip("n=64 traced cluster in -short mode")
	}
	c1, t1 := treeTracedCycle(t, 42)
	c2, t2 := treeTracedCycle(t, 42)
	if !bytes.Equal(c1, c2) {
		t.Error("same-seed n=64 tree runs produced different Chrome traces")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed n=64 tree runs produced different timelines")
	}
	for _, span := range []string{"relay.checkpoint", "relay.restart"} {
		if !bytes.Contains(t1, []byte(span)) {
			t.Errorf("tree timeline records no %q span", span)
		}
	}
}

// abortDecision drives a checkpoint asynchronously, kills a node
// mid-2PC, and reports whether the op committed and with what error. The
// heartbeat lease judges the silenced node under either coordinator, so
// the op must end within one lease verdict of the kill.
func abortDecision(t *testing.T, groupSize, killNode int) (committed bool, err error) {
	t.Helper()
	const n = 8
	cl, cerr := cruz.New(cruz.Config{Nodes: n, Seed: 3, GroupSize: groupSize, AutoRecover: true})
	if cerr != nil {
		t.Fatal(cerr)
	}
	_, job := deployWideRing(t, cl, n)
	cl.Run(50 * cruz.Millisecond)
	var ended cruz.Time
	fired := false
	cl.Coordinator.Checkpoint(job, cruz.CheckpointOptions{}, func(r *cruz.CheckpointResult, cbErr error) {
		committed, err, fired, ended = cbErr == nil, cbErr, true, cl.Engine.Now()
	})
	// Let the fan-out reach the agents, then yank a machine mid-protocol.
	cl.Run(2 * cruz.Millisecond)
	cl.FailNode(killNode)
	fault := cl.Engine.Now()
	if !cl.RunUntil(func() bool { return fired }, 30*cruz.Second) {
		t.Fatal("checkpoint never resolved after mid-2PC node kill")
	}
	if d := ended.Sub(fault); d > leaseVerdict {
		t.Errorf("checkpoint resolved %v after the kill, want within %v", d, leaseVerdict)
	}
	return committed, err
}

// TestTreeFlatAbortEquivalence injects a node kill mid-2PC and demands
// the same decision from both coordinators: abort. Killing a group
// *leader* is the interesting tree case — the root must still abort
// (the lease judges a silent leader exactly as it judges a silent member
// flat), not hang or half-commit.
func TestTreeFlatAbortEquivalence(t *testing.T) {
	size := coord.GroupSizeFor(8) // 3 → groups {0,1,2},{3,4,5},{6,7}; leaders 0,3,6
	cases := []struct {
		name      string
		groupSize int
		kill      int
	}{
		{"flat/member", 0, 4},
		{"tree/member", size, 4}, // mid-group member of group 1
		{"tree/leader", size, 3}, // leader of group 1
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			committed, err := abortDecision(t, tc.groupSize, tc.kill)
			if committed {
				t.Fatalf("%s: checkpoint committed despite killing node %d mid-2PC", tc.name, tc.kill)
			}
			if !errors.Is(err, core.ErrNodeFailed) {
				t.Fatalf("%s: aborted op's error = %v, want ErrNodeFailed", tc.name, err)
			}
		})
	}
}

// TestTreeFlatMemberErrorEquivalence: a member that cannot even start its
// local checkpoint (its pod is gone) fails the op with ErrAgentFailed
// naming that pod — the same error whether its <done> went straight to the
// root, through a remote leader, or never left the leader's own node. The
// abort that follows closes every op on the root, the leaders and the
// members. The restart rows fail the same way one phase later: after a
// committed checkpoint, one member's image is dropped from its node's
// store, so its restart fails where it loads.
func TestTreeFlatMemberErrorEquivalence(t *testing.T) {
	const n = 8
	size := coord.GroupSizeFor(n) // 3 → leaders 0, 3, 6
	for _, tc := range []struct {
		name      string
		groupSize int
		gone      int
	}{
		{"flat", 0, 3},
		{"tree/leader-local", size, 3},
		{"tree/remote-member", size, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := cruz.New(cruz.Config{Nodes: n, Seed: 3, GroupSize: tc.groupSize})
			if err != nil {
				t.Fatal(err)
			}
			names, job := deployWideRing(t, cl, n)
			cl.Run(50 * cruz.Millisecond)
			cl.Pod(names[tc.gone]).Destroy()
			_, err = cl.Checkpoint(job, cruz.CheckpointOptions{})
			if !errors.Is(err, core.ErrAgentFailed) || !strings.Contains(err.Error(), "pod "+names[tc.gone]+":") {
				t.Fatalf("checkpoint error = %v, want ErrAgentFailed naming %s", err, names[tc.gone])
			}
			cl.Run(100 * cruz.Millisecond)
			check(t, cl)
			for i, name := range names {
				if i != tc.gone && cl.Pod(name).Stopped() {
					t.Errorf("pod %s still stopped after the abort", name)
				}
			}
			if seq, ok := cl.Coordinator.CommittedSeq(job.Name); ok {
				t.Errorf("aborted checkpoint committed seq %d", seq)
			}
		})
		t.Run("restart/"+tc.name, func(t *testing.T) {
			cl, err := cruz.New(cruz.Config{Nodes: n, Seed: 3, GroupSize: tc.groupSize})
			if err != nil {
				t.Fatal(err)
			}
			names, job := deployWideRing(t, cl, n)
			cl.Run(50 * cruz.Millisecond)
			res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gone := names[tc.gone]
			cl.PodNode(gone).Store.Discard(gone, res.Seq)
			_, err = cl.Restart(job, 0)
			if !errors.Is(err, core.ErrAgentFailed) || !strings.Contains(err.Error(), "pod "+gone+":") {
				t.Fatalf("restart error = %v, want ErrAgentFailed naming %s", err, gone)
			}
			cl.Run(100 * cruz.Millisecond)
			if k := cl.Coordinator.OpenOps(); k != 0 {
				t.Errorf("coordinator has %d open ops after the failed restart", k)
			}
			for _, node := range cl.Nodes {
				if k := node.Agent.OpenOps(); k != 0 {
					t.Errorf("%s agent has %d open ops after the failed restart", node.Kernel.Name(), k)
				}
			}
		})
	}
}

// TestTreePlacementReportsReachRoot: a member's placement report goes to
// its leader, and replication finishes long after the leader's relay op
// has — the leader must forward it anyway, or the root's registry never
// learns of a replica (or a shard) and a later recovery picks the wrong
// sequence or finds "no surviving replica".
func TestTreePlacementReportsReachRoot(t *testing.T) {
	const n = 16
	for _, ec := range []cruz.ECParams{{}, {M: 4, R: 2}} {
		cl, err := cruz.New(cruz.Config{Nodes: n, Seed: 1, GroupSize: 4, Replicas: 1, EC: ec})
		if err != nil {
			t.Fatal(err)
		}
		names, job := deployWideRing(t, cl, n)
		cl.Run(100 * cruz.Millisecond)
		res, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: true})
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(5 * cruz.Second)
		for _, name := range names {
			if ec.Enabled() {
				if got := cl.Coordinator.KnownECShards(name, res.Seq); got != ec.M+ec.R {
					t.Errorf("EC %v: root knows %d shard holders of %s/%d, want %d", ec, got, name, res.Seq, ec.M+ec.R)
				}
			} else if got := cl.Coordinator.KnownHolders(name, res.Seq); got != 2 {
				t.Errorf("root knows %d holders of %s/%d, want 2 (primary + replica)", got, name, res.Seq)
			}
		}
	}
}
