package cruz_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cruz"
	"cruz/internal/trace"
)

// tracedCycle runs the reference workload with tracing on: an slm ring,
// one coordinated checkpoint, a crash of every pod, and a coordinated
// restart. It returns both exporter outputs.
func tracedCycle(t *testing.T, seed int64, opts cruz.CheckpointOptions) (chrome, timeline []byte) {
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

	tr := cl.Trace()
	if tr == nil {
		t.Fatal("Config.Trace did not attach a tracer")
	}
	check(t, cl)
	var cb, tb bytes.Buffer
	if err := trace.WriteChromeTrace(&cb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTimeline(&tb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), tb.Bytes()
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

// TestTraceCheckpointPhases asserts the acceptance shape: the Chrome
// export is valid JSON and every node records the nested checkpoint
// phases quiesce -> drain -> capture -> write -> commit.
func TestTraceCheckpointPhases(t *testing.T) {
	chrome, _ := tracedCycle(t, 7, cruz.CheckpointOptions{})
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   float64
			Pid  int `json:"pid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &ct); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	// Map pid -> node name from metadata, then collect phase begin times
	// per node.
	nodeOf := map[int]string{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			nodeOf[ev.Pid] = ev.Args["name"].(string)
		}
	}
	type stamp struct {
		name string
		ts   float64
	}
	begins := map[string][]stamp{}
	for _, ev := range ct.TraceEvents {
		if ev.Cat == "phase" && ev.Ph == "b" {
			node := nodeOf[ev.Pid]
			begins[node] = append(begins[node], stamp{ev.Name, ev.Ts})
		}
	}
	order := []string{"quiesce", "drain", "capture", "write", "commit"}
	for n := 0; n < 3; n++ {
		node := fmt.Sprintf("node%d", n)
		got := begins[node]
		// The checkpoint phases must appear once each, in protocol order,
		// before the restart phases (load/restore).
		i := 0
		for _, s := range got {
			if i < len(order) && s.name == order[i] {
				i++
			}
		}
		if i != len(order) {
			t.Errorf("%s: phase begins %v missing ordered %v", node, got, order)
		}
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
