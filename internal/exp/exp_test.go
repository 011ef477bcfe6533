package exp

import (
	"strings"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/scenario"
)

// The experiment tests run at reduced scale (0.05 = 5 MB pod images) and
// assert the paper's *shape* claims; absolute paper-scale numbers are
// produced by cmd/cruzbench and the root benchmarks.

func TestFig5ShapeSmallScale(t *testing.T) {
	rows, err := Fig5([]int{2, 4}, 2, 500*cruz.Millisecond, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LatencyMeanMs <= 0 || r.OverheadMeanUs <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		// Overhead is negligible vs latency (the paper's headline).
		if r.OverheadMeanUs/1000 > r.LatencyMeanMs/10 {
			t.Fatalf("overhead not negligible: %+v", r)
		}
	}
	// Fig 5(a): latency is roughly flat in node count (parallel local
	// saves dominate); allow 30% growth.
	if rows[1].LatencyMeanMs > rows[0].LatencyMeanMs*1.3 {
		t.Fatalf("latency not flat: %v -> %v", rows[0].LatencyMeanMs, rows[1].LatencyMeanMs)
	}
	// Fig 5(b): overhead grows with node count.
	if rows[1].OverheadMeanUs <= rows[0].OverheadMeanUs {
		t.Fatalf("overhead not increasing: %v -> %v", rows[0].OverheadMeanUs, rows[1].OverheadMeanUs)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyMbps < 700 {
		t.Fatalf("steady rate %.0f Mb/s too low", res.SteadyMbps)
	}
	if res.ZeroMs <= 0 {
		t.Fatal("no zero-rate interval observed")
	}
	if res.RecoveryMs <= res.CheckpointMs {
		t.Fatalf("recovery (%.1fms) before checkpoint completion (%.1fms)?", res.RecoveryMs, res.CheckpointMs)
	}
	// TCP backoff delays recovery beyond checkpoint completion by on the
	// order of the 200 ms RTO floor — the paper's ~100 ms corresponds to
	// its kernel's effective timer; ours must be in the same regime
	// (tens to hundreds of ms, not seconds).
	if gap := res.RecoveryMs - res.CheckpointMs; gap > 1000 {
		t.Fatalf("TCP recovery gap %.0f ms too large", gap)
	}
	if len(res.Series.Points) < 100 {
		t.Fatalf("series too sparse: %d points", len(res.Series.Points))
	}
}

func TestRuntimeOverheadBelowHalfPercent(t *testing.T) {
	res, err := RuntimeOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.OverheadPct < 0 {
		t.Fatalf("pod run faster than native? %+v", res)
	}
	if res.OverheadPct >= 0.5 {
		t.Fatalf("virtualization overhead %.3f%% exceeds the paper's 0.5%% bound", res.OverheadPct)
	}
}

func TestMessageComplexityShape(t *testing.T) {
	rows, err := MessageComplexity([]int{2, 4}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CruzMsgs != 4*r.Nodes {
			t.Fatalf("cruz msgs = %d at n=%d, want %d", r.CruzMsgs, r.Nodes, 4*r.Nodes)
		}
		if r.FlushMarkerMsgs != r.Nodes*(r.Nodes-1) {
			t.Fatalf("markers = %d at n=%d, want %d", r.FlushMarkerMsgs, r.Nodes, r.Nodes*(r.Nodes-1))
		}
	}
	// O(N) vs O(N²): doubling nodes doubles Cruz messages but grows
	// markers 6x (2->12 for 2->4 nodes).
	if rows[1].CruzMsgs != 2*rows[0].CruzMsgs {
		t.Fatalf("cruz growth not linear: %d -> %d", rows[0].CruzMsgs, rows[1].CruzMsgs)
	}
	if rows[1].FlushMarkerMsgs != 6*rows[0].FlushMarkerMsgs {
		t.Fatalf("marker growth not quadratic: %d -> %d", rows[0].FlushMarkerMsgs, rows[1].FlushMarkerMsgs)
	}
}

func TestFig4CompareShape(t *testing.T) {
	rows, err := Fig4Compare([]int{3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig4Variant{}
	for _, v := range rows[0].Variants {
		byName[v.Name] = v
	}
	blocking, fig4, cow := byName["blocking"], byName["fig4-optimized"], byName["copy-on-write"]
	// Under blocking, the fast pods wait for the straggler: their freeze
	// tracks the slowest save. Under Fig. 4 they resume at their own
	// save, so the fast-pod freeze must drop substantially.
	if fig4.MinBlockedMs >= blocking.MinBlockedMs*0.85 {
		t.Fatalf("fig4 fast-pod freeze %.1f not below blocking %.1f",
			fig4.MinBlockedMs, blocking.MinBlockedMs)
	}
	// The straggler itself cannot resume before its own save finishes.
	if fig4.MaxBlockedMs < fig4.MinBlockedMs {
		t.Fatalf("inconsistent freezes: %+v", fig4)
	}
	// COW slashes every pod's freeze.
	if cow.MaxBlockedMs*5 > blocking.MinBlockedMs {
		t.Fatalf("COW freeze %.1f not far below blocking %.1f", cow.MaxBlockedMs, blocking.MinBlockedMs)
	}
}

func TestRestartLatencyShape(t *testing.T) {
	rows, err := RestartLatency([]int{2}, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.LatencyMeanMs <= 0 || r.LocalMeanMs <= 0 {
		t.Fatalf("degenerate %+v", r)
	}
	// Like checkpoint, restart is dominated by local work (image read +
	// restore), not coordination.
	if r.OverheadMeanUs/1000 > r.LatencyMeanMs/10 {
		t.Fatalf("restart overhead not negligible: %+v", r)
	}
}

func TestIncrementalAblationShape(t *testing.T) {
	rows, err := IncrementalAblation(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Kind != "full" || rows[1].Kind != "incremental" {
		t.Fatalf("rows %+v", rows)
	}
	if rows[1].ImageMB >= rows[0].ImageMB {
		t.Fatalf("incremental image %.2f MB not smaller than full %.2f MB", rows[1].ImageMB, rows[0].ImageMB)
	}
	if rows[1].LatencyMs >= rows[0].LatencyMs {
		t.Fatalf("incremental latency %.2f not below full %.2f", rows[1].LatencyMs, rows[0].LatencyMs)
	}
}

func TestRecoveryShape(t *testing.T) {
	rows, err := Recovery(3, 0.05, []RecoveryConfig{
		{Replicas: 1, Spares: 0},
		{Replicas: 1, Spares: 1},
		{Replicas: 2, Spares: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DetectMs <= 0 || r.PlaceMs <= 0 || r.RestartMs <= 0 || r.MTTRMs <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		// Detection is lease-bound regardless of replication or spare
		// configuration: no earlier than the 350 ms lease timeout, no
		// later than one extra 100 ms heartbeat period.
		if r.DetectMs < 350 || r.DetectMs > 460 {
			t.Fatalf("detection not lease-bound: %+v", r)
		}
	}
	// No spare: a replica-holding survivor doubles up, so the transfer
	// phase is free.
	if rows[0].TransferMs != 0 || rows[0].TransferMB != 0 {
		t.Fatalf("survivor recovery moved bytes: %+v", rows[0])
	}
	// A spare takes the pod when present, but with only one replica (on
	// the ring survivor) it has to fetch the image first.
	if rows[1].Target == rows[0].Target {
		t.Fatalf("spare not preferred: both recoveries targeted %s", rows[0].Target)
	}
	if rows[1].TransferMs <= 0 || rows[1].TransferMB <= 0 {
		t.Fatalf("spare recovery with k=1 should pay a transfer: %+v", rows[1])
	}
	// With a second replica the spare already holds the image: same
	// target, transfer free again — strictly lower MTTR.
	if rows[2].Target != rows[1].Target {
		t.Fatalf("k=2 target %s differs from k=1 spare target %s", rows[2].Target, rows[1].Target)
	}
	if rows[2].TransferMs != 0 || rows[2].TransferMB != 0 {
		t.Fatalf("k=2 spare recovery moved bytes: %+v", rows[2])
	}
	if rows[2].MTTRMs >= rows[1].MTTRMs {
		t.Fatalf("extra replica did not cut MTTR: %.1f vs %.1f", rows[2].MTTRMs, rows[1].MTTRMs)
	}
}

func TestPrecopyAblationShape(t *testing.T) {
	rows, err := PrecopyAblation(2, 2, 0.05, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PrecopyRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	stop, pre := byName["stop-and-copy"], byName["precopy"]
	if stop.DowntimeMs <= 0 || pre.DowntimeMs <= 0 {
		t.Fatalf("degenerate rows: %+v", rows)
	}
	// The acceptance claim: pre-copy rounds shrink the freeze window at
	// least 5x versus stop-and-copy (O(image) -> O(residual dirty set)).
	if pre.DowntimeMs*5 > stop.DowntimeMs {
		t.Fatalf("precopy downtime %.1f ms not 5x below stop-and-copy %.1f ms",
			pre.DowntimeMs, stop.DowntimeMs)
	}
	// The commit latency still covers the full image volume: pre-copy
	// moves the copy off the freeze window, it does not make it free.
	if pre.LatencyMs*3 < stop.LatencyMs {
		t.Fatalf("precopy latency %.1f ms suspiciously below stop-and-copy %.1f ms",
			pre.LatencyMs, stop.LatencyMs)
	}
	// Only the residual is written while frozen.
	if pre.FrozenMB >= stop.FrozenMB/5 {
		t.Fatalf("precopy frozen copy %.2f MB not well below full %.2f MB",
			pre.FrozenMB, stop.FrozenMB)
	}
}

// TestExperimentsDeterministic re-runs an experiment end to end and
// demands bit-identical results — the property that makes EXPERIMENTS.md
// reproducible.
func TestExperimentsDeterministic(t *testing.T) {
	a, err := Fig5([]int{3}, 1, 200*cruz.Millisecond, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5([]int{3}, 1, 200*cruz.Millisecond, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a[0], b[0])
	}
}

func TestDedupAblationShape(t *testing.T) {
	rows, err := DedupAblation(2, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]DedupRow{}
	for _, r := range rows {
		by[r.Variant] = r
	}
	// A content-addressed checkpoint of a running ring writes only the
	// chunks it changed; a full one writes the whole image again.
	if d, f := by["dedup"], by["full"]; d.SteadyMB*10 > f.SteadyMB || d.RestoreMs <= 0 {
		t.Fatalf("dedup steady write %.2f MB not a tenth of full %.2f MB: %+v", d.SteadyMB, f.SteadyMB, rows)
	}
}

func TestCompactionAblationShape(t *testing.T) {
	rows, err := CompactionAblation(2, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	chain, compact := rows[1], rows[2]
	// Auto-compaction folds the chain en route: it frees chunks that the
	// uncompacted chain keeps resident.
	if chain.FreedMB != 0 || compact.FreedMB <= 0 || compact.StoreChunks >= chain.StoreChunks {
		t.Fatalf("compaction freed nothing: %+v", rows)
	}
}

func TestMigrateAblationShape(t *testing.T) {
	rows, err := MigrateAblation(2, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := rows[0], rows[1]
	// Live migration freezes for the residual dirty set, stop-and-copy for
	// the whole image.
	if live.Rounds == 0 || live.DowntimeMs*5 > stop.DowntimeMs {
		t.Fatalf("live downtime %.1f ms not 5x below stop-and-copy %.1f ms: %+v", live.DowntimeMs, stop.DowntimeMs, rows)
	}
}

func TestECAblationShape(t *testing.T) {
	rows, err := ECAblation([]int{8}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	repl, ec := rows[0], rows[1]
	// 3-way replication ships the image three times, 4+2 coding 1.5 times
	// plus stripe padding, and pays for it in a reconstruct window.
	if repl.Overhead < 2.9 || ec.Overhead > 1.7 || ec.ReconstructMs <= 0 || repl.ReconstructMs != 0 {
		t.Fatalf("durability bytes or reconstruct out of shape: %+v", rows)
	}
}

func TestPhasesShape(t *testing.T) {
	classic, dedup, err := Phases(2, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	phases := func(r *PhasesResult) string {
		var names []string
		for _, row := range r.Report.Rows {
			names = append(names, row.Phase)
		}
		return strings.Join(names, ",")
	}
	if got := phases(classic); got != "quiesce,drain,capture,write,commit" {
		t.Errorf("classic phases %s", got)
	}
	if got := phases(dedup); got != "quiesce,drain,capture,hash,dedup,write,commit" {
		t.Errorf("dedup phases %s", got)
	}
}

// TestOracleJudgesTheProgramsRunningNow: after a migration, and after a
// restart, a pod runs a program restored from an image, not the worker
// first spawned. A fault there must fail the end-of-run judgment.
func TestOracleJudgesTheProgramsRunningNow(t *testing.T) {
	for _, op := range []struct {
		name string
		do   func(r *ring) error
	}{
		{"migrate", func(r *ring) error {
			_, err := r.Cluster.Migrate(r.job, "slm-1", 2, cruz.MigrateOptions{})
			return err
		}},
		{"restart", func(r *ring) error {
			if _, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{}); err != nil {
				return err
			}
			_, err := r.Restart(r.job.Name)
			return err
		}},
	} {
		r, err := warmRing(cruz.Config{Nodes: 3}, scenario.Ring{Name: "slm", Size: 2, SLM: slmConfig(2, 0.05)})
		if err != nil {
			t.Fatal(err)
		}
		if err := op.do(r); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		r.Cluster.Run(100 * cruz.Millisecond)
		if err := r.Check(); err != nil {
			t.Fatalf("%s: a clean run failed the oracle: %v", op.name, err)
		}
		r.Cluster.Pod("slm-1").Process(1).Program().(*slm.Worker).Fault = "injected"
		if err := r.Check(); err == nil || !strings.Contains(err.Error(), "injected") {
			t.Errorf("%s: the oracle passed a fault in the running program: %v", op.name, err)
		}
	}
}
