package cruz_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cruz"
	"cruz/internal/trace"
)

// tracedCycle runs the reference workload with tracing on: an slm ring,
// one coordinated checkpoint, a crash of every pod, and a coordinated
// restart. It returns both exporter outputs.
func tracedCycle(t *testing.T, seed int64, opts cruz.CheckpointOptions) (chrome, timeline []byte) {
	t.Helper()
	tr := tracedCluster(t, seed, opts).Trace()
	var cb, tb bytes.Buffer
	if err := trace.WriteChromeTrace(&cb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTimeline(&tb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), tb.Bytes()
}

// tracedCluster runs tracedCycle's workload and returns the cluster,
// checked clean.
func tracedCluster(t *testing.T, seed int64, opts cruz.CheckpointOptions) *cruz.Cluster {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: 3, Seed: seed, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 3)
	cl.Run(100 * cruz.Millisecond)
	res, err := cl.Checkpoint(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(50 * cruz.Millisecond)
	for _, name := range names {
		cl.Pod(name).Destroy()
	}
	if _, err := cl.Restart(job, res.Seq); err != nil {
		t.Fatal(err)
	}
	cl.Run(100 * cruz.Millisecond)
	if cl.Trace() == nil {
		t.Fatal("Config.Trace did not attach a tracer")
	}
	check(t, cl)
	return cl
}

// TestTraceDeterminism is the tentpole's determinism guarantee: two runs
// with the same seed must produce byte-identical traces in both export
// formats.
func TestTraceDeterminism(t *testing.T) {
	c1, t1 := tracedCycle(t, 42, cruz.CheckpointOptions{})
	c2, t2 := tracedCycle(t, 42, cruz.CheckpointOptions{})
	if !bytes.Equal(c1, c2) {
		t.Error("same-seed runs produced different Chrome traces")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed runs produced different timelines")
	}
	// Guard against a vacuous pass: the trace must be substantial and
	// must cover every node. (Different seeds can legitimately produce
	// identical traces here — the rng only perturbs TCP initial sequence
	// numbers, which no trace point records.)
	if len(t1) < 2048 {
		t.Errorf("timeline suspiciously small (%d bytes):\n%s", len(t1), t1)
	}
	for _, node := range []string{"node0", "node1", "node2"} {
		if !bytes.Contains(t1, []byte(node)) {
			t.Errorf("timeline has no events for %s", node)
		}
	}
}

// spanTree renders the span tree rooted at the first span named root on
// node, as that node recorded it: begins lists each descendant in Begin
// order, as its name under the root's span and parent/name below it;
// ends lists the root and its descendants in End order, a name suffixed
// " aborted" where the span ended with outcome=aborted. Spans of the
// same operation on other nodes are left out.
func spanTree(evs []trace.Event, node, root string) (begins, ends []string) {
	name := map[trace.SpanID]string{}
	var rootID trace.SpanID
	for _, ev := range evs {
		if ev.Kind != trace.KindBegin || ev.Node != node {
			continue
		}
		switch {
		case rootID == 0 && ev.Name == root:
			rootID = ev.Span
		case rootID == 0 || name[ev.Parent] == "":
			continue
		case ev.Parent == rootID:
			begins = append(begins, ev.Name)
		default:
			begins = append(begins, name[ev.Parent]+"/"+ev.Name)
		}
		name[ev.Span] = ev.Name
	}
	for _, ev := range evs {
		if ev.Kind != trace.KindEnd || ev.Node != node || name[ev.Span] == "" {
			continue
		}
		end := ev.Name
		for _, a := range ev.ArgSlice() {
			if a.Key == "outcome" && a.Str == "aborted" {
				end += " aborted"
			}
		}
		ends = append(ends, end)
	}
	return begins, ends
}

// TestTraceCheckpointPhases pins the phase tree of each kind of op: for
// the op's span on each listed node, the names of the spans under it in
// Begin order (every phase is a child of the op's span, whatever runs
// beside it) and the order they end in. A pre-copy round runs beside the
// hash and dedup of the pages it carries, a copy-on-write commit beside
// the hash, dedup and write of the image it released; every other phase
// ends before the next begins. No abort the facade can bring about finds
// a round and a COW commit open at once: a round ends before the
// residual's quiesce. The reference cycle's Chrome export must also be
// valid JSON.
func TestTraceCheckpointPhases(t *testing.T) {
	cycle := func(opts cruz.CheckpointOptions) func(*testing.T) *cruz.Cluster {
		return func(t *testing.T) *cruz.Cluster { return tracedCluster(t, 7, opts) }
	}
	migrate := func(t *testing.T) *cruz.Cluster {
		cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: 11, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		_, job := deployRingCfg(t, cl, migrateSlm(3))
		cl.Run(300 * cruz.Millisecond)
		if _, err := cl.Migrate(job, "wb", 3, cruz.MigrateOptions{Precopy: cruz.PrecopyConfig{MaxRounds: 2}}); err != nil {
			t.Fatal(err)
		}
		cl.Run(100 * cruz.Millisecond)
		return cl
	}
	recovery := func(t *testing.T) *cruz.Cluster {
		cl, _, _ := replicatedCluster(t, cruz.Config{
			Nodes: 3, Seed: 17, Replicas: 1, AutoRecover: true, Trace: true,
		}, 3)
		cl.FailNode(2)
		if !cl.AwaitRecovery(1, 10*cruz.Second) {
			t.Fatal("recovery never completed")
		}
		if err := cl.RecoveryErr(); err != nil {
			t.Fatal(err)
		}
		cl.Run(100 * cruz.Millisecond)
		return cl
	}
	// abort starts a deduplicating pre-copy checkpoint of a job whose last
	// member is a pod node0 does not manage. node0's CPU is serial, so its
	// agent takes that member's request only once wa's first round is
	// captured; it refuses it, and the coordinator's abort reaches node0
	// while the round's hash and dedup are under way.
	abort := func(t *testing.T) *cruz.Cluster {
		cl, err := cruz.New(cruz.Config{Nodes: 3, Seed: 7, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		_, job := deployRing(t, cl, 3)
		cl.Run(100 * cruz.Millisecond)
		ghost := &cruz.Job{Name: job.Name, Members: append(slices.Clone(job.Members),
			cruz.Member{Pod: "ghost", Agent: job.Members[0].Agent})}
		var cerr error
		fired := false
		cl.Coordinator.Checkpoint(ghost, cruz.CheckpointOptions{Dedup: true, Precopy: cruz.PrecopyConfig{MaxRounds: 2}},
			func(_ *cruz.CheckpointResult, err error) { cerr, fired = err, true })
		if !cl.RunUntil(func() bool { return fired }, 5*cruz.Second) || cerr == nil {
			t.Fatalf("checkpoint with a ghost member: fired %v, err %v", fired, cerr)
		}
		cl.Run(50 * cruz.Millisecond)
		return cl
	}
	for _, tc := range []struct {
		name        string
		run         func(*testing.T) *cruz.Cluster
		nodes, root string
		begins      string
		ends        string
	}{
		{name: "stop-and-copy", nodes: "node0 node1 node2", root: "agent.checkpoint",
			run:    cycle(cruz.CheckpointOptions{}),
			begins: "quiesce drain capture write commit",
			ends:   "quiesce, drain, capture, write, commit, agent.checkpoint"},
		{name: "cow", nodes: "node0", root: "agent.checkpoint",
			run:    cycle(cruz.CheckpointOptions{COW: true, Dedup: true}),
			begins: "quiesce drain capture commit hash dedup write",
			ends:   "quiesce, drain, capture, hash, dedup, commit, write, agent.checkpoint"},
		{name: "precopy", nodes: "node0", root: "agent.checkpoint",
			run:    cycle(cruz.CheckpointOptions{Dedup: true, Precopy: cruz.PrecopyConfig{MaxRounds: 2}}),
			begins: "precopy-round hash dedup precopy-round hash dedup residual-stop drain capture hash dedup write commit",
			ends: "hash, dedup, precopy-round, hash, dedup, precopy-round, " +
				"residual-stop, drain, capture, hash, dedup, write, commit, agent.checkpoint"},
		{name: "restart", nodes: "node0", root: "agent.restart",
			run:    cycle(cruz.CheckpointOptions{}),
			begins: "load store.load restore commit",
			ends:   "store.load, load, restore, commit, agent.restart"},
		{name: "migrate-out", nodes: "node1", root: "agent.migrate-out", run: migrate,
			begins: "migrate-round agent.replicate migrate-round agent.replicate " +
				"migrate-freeze residual-capture residual-stream agent.replicate",
			ends: "agent.replicate, migrate-round, agent.replicate, migrate-round, " +
				"migrate-freeze, residual-capture, agent.replicate, residual-stream, agent.migrate-out"},
		{name: "migrate-in", nodes: "node3", root: "agent.migrate-in", run: migrate,
			begins: "migrate-merge migrate-merge migrate-merge takeover",
			ends:   "migrate-merge, migrate-merge, migrate-merge, takeover, agent.migrate-in"},
		{name: "recovery", nodes: "node3", root: "recovery", run: recovery,
			begins: "recovery.place recovery.transfer recovery.restart recovery.restart/restart",
			ends:   "recovery.place, recovery.transfer, restart, recovery.restart, recovery"},
		{name: "precopy-abort", nodes: "node0", root: "agent.checkpoint", run: abort,
			begins: "precopy-round hash dedup",
			ends:   "hash, precopy-round aborted, dedup aborted, agent.checkpoint aborted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := tc.run(t)
			check(t, cl)
			tr := cl.Trace()
			if tr.Dropped() != 0 {
				t.Fatalf("trace ring dropped %d events", tr.Dropped())
			}
			for _, node := range strings.Fields(tc.nodes) {
				begins, ends := spanTree(tr.Events(), node, tc.root)
				if got := strings.Join(begins, " "); got != tc.begins {
					t.Errorf("%s %s begins:\n got %s\nwant %s", node, tc.root, got, tc.begins)
				}
				if got := strings.Join(ends, ", "); got != tc.ends {
					t.Errorf("%s %s ends:\n got %s\nwant %s", node, tc.root, got, tc.ends)
				}
			}
			var chrome bytes.Buffer
			if err := tr.WriteChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(chrome.Bytes()) {
				t.Fatal("invalid Chrome trace JSON")
			}
		})
	}
}

// TestTracePrecopyDeterministicPhases: a pre-copy checkpoint cycle is as
// deterministic as the plain one — two same-seed runs export byte-identical
// traces — and every node records the new precopy-round and residual-stop
// phases (the quiesce phase is renamed when only the residual is frozen).
func TestTracePrecopyDeterministicPhases(t *testing.T) {
	opts := cruz.CheckpointOptions{
		Precopy: cruz.PrecopyConfig{MaxRounds: 2},
	}
	c1, t1 := tracedCycle(t, 42, opts)
	c2, t2 := tracedCycle(t, 42, opts)
	if !bytes.Equal(c1, c2) {
		t.Error("same-seed precopy runs produced different Chrome traces")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed precopy runs produced different timelines")
	}
	for _, phase := range []string{"precopy-round", "residual-stop"} {
		if !bytes.Contains(t1, []byte(phase)) {
			t.Errorf("timeline records no %q phase", phase)
		}
	}
	if bytes.Contains(t1, []byte("\tquiesce")) || bytes.Contains(t1, []byte(" quiesce")) {
		t.Error("precopy checkpoint still records a full quiesce phase")
	}
}

// TestTraceDisabledZeroEvents checks the off-by-default contract: without
// Config.Trace the cluster exports no trace (its tracer keeps only the
// flight recorder's rings).
func TestTraceDisabledZeroEvents(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Trace() != nil {
		t.Fatal("tracer attached without Config.Trace")
	}
	_, job := deployRing(t, cl, 2)
	cl.Run(50 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	if cl.Trace() != nil {
		t.Fatal("tracer appeared mid-run")
	}
}

// TestParallelClustersTraceLikeASequentialRun: the memoised gob codecs are
// process-wide state shared by every cluster in the process, so clusters
// stepped concurrently pass through the same encoder and decoder — and
// must not notice: each one's trace is byte-identical to that of the same
// seed run alone. Dedup and replication put manifests and bulk frames, not
// only control frames, through the codecs.
func TestParallelClustersTraceLikeASequentialRun(t *testing.T) {
	opts := cruz.CheckpointOptions{Dedup: true, Replicas: 1}
	wantChrome, wantTimeline := tracedCycle(t, 42, opts)
	type traces struct{ chrome, timeline []byte }
	got := make([]traces, 4)
	t.Run("clusters", func(t *testing.T) {
		for i := range got {
			i := i
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				got[i].chrome, got[i].timeline = tracedCycle(t, 42, opts)
			})
		}
	})
	for i, g := range got {
		if !bytes.Equal(g.chrome, wantChrome) || !bytes.Equal(g.timeline, wantTimeline) {
			t.Errorf("cluster %d, run alongside %d others, traced differently from a run alone", i, len(got)-1)
		}
	}
}
