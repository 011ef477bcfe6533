package cruz_test

import (
	"bytes"
	"testing"

	"cruz"
	"cruz/internal/trace/critpath"
)

// tracedRecovery runs one traced kill-and-recover episode and returns the
// rendered recovery span tree, its critical-path report, and the
// lease-expiry flight dump — the three artifacts the tentpole promises are
// causally linked and deterministic — plus the recovery result MTTR.
func tracedRecovery(t *testing.T, seed int64) (tree, report, dump string, mttrMs float64) {
	t.Helper()
	cl, _, _ := replicatedCluster(t, cruz.Config{
		Nodes: 3, Spares: 1, Seed: seed, Replicas: 1, AutoRecover: true,
		Trace: true, TraceCapacity: 1 << 17,
	}, 3)
	cl.FailNode(1)
	if !cl.AwaitRecovery(1, 10*cruz.Second) {
		t.Fatal("automatic recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}

	check(t, cl)
	tr := cl.Trace()
	if n := tr.OpenSpans(); n != 0 { // the failed node's too, which Check forgives
		t.Fatalf("%d spans still open after recovery: %v", n, tr.OpenSpanNames())
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace ring overflowed (%d events dropped)", d)
	}

	rt := critpath.FindRoot(critpath.BuildTrees(tr.Events()), "recovery")
	if rt == nil {
		t.Fatal("no recovery op in the trace")
	}
	// One causally-linked tree: the coordinator's root plus spans adopted
	// by at least two other machines, with nothing orphaned.
	if len(rt.Nodes) < 3 {
		t.Fatalf("recovery tree spans only %v, want coordinator + >=2 agents", rt.Nodes)
	}
	if len(rt.Orphans) != 0 {
		t.Fatalf("%d spans lost their parent link", len(rt.Orphans))
	}
	rep := critpath.Analyze(rt)
	if rep == nil {
		t.Fatal("recovery root span never ended")
	}

	// The phase decomposition must re-derive the MTTR the recovery result
	// reports, within 1%.
	res := cl.Recoveries()[0]
	mttrMs = res.MTTR.Milliseconds()
	var sum float64
	for _, s := range rep.Phases {
		sum += s.Ms
	}
	if diff := sum - mttrMs; diff > mttrMs/100 || diff < -mttrMs/100 {
		t.Fatalf("critical-path phase sum %.3f ms vs MTTR %.3f ms: off by more than 1%%", sum, mttrMs)
	}

	// The lease expiry must have auto-dumped the flight recorder with a
	// non-empty pre-trigger window.
	for _, d := range tr.FlightDumps() {
		if d.Trigger == "lease.expiry" {
			if len(d.Events) == 0 {
				t.Fatal("lease-expiry flight dump is empty")
			}
			if d.Reason != "node node1" {
				t.Fatalf("flight dump reason = %q, want %q", d.Reason, "node node1")
			}
			return rt.Format(), rep.Format(), d.Format(), mttrMs
		}
	}
	t.Fatal("lease expiry produced no flight dump")
	return "", "", "", 0
}

// TestRecoveryTraceCausalTree is the acceptance check for the tentpole:
// a kill-and-recover episode renders as a single causally-linked span
// tree across coordinator and agents, its critical path explains the
// MTTR, the flight recorder preserved the window before the lease
// expiry — and all three artifacts are byte-identical across same-seed
// re-runs.
func TestRecoveryTraceCausalTree(t *testing.T) {
	tree1, rep1, dump1, mttr1 := tracedRecovery(t, 11)
	tree2, rep2, dump2, mttr2 := tracedRecovery(t, 11)
	if tree1 != tree2 {
		t.Error("same-seed recovery runs rendered different span trees")
	}
	if rep1 != rep2 {
		t.Error("same-seed recovery runs rendered different critical paths")
	}
	if dump1 != dump2 {
		t.Error("same-seed recovery runs rendered different flight dumps")
	}
	if mttr1 != mttr2 {
		t.Errorf("same-seed recovery MTTR differs: %.3f vs %.3f ms", mttr1, mttr2)
	}
	// Guard against a vacuous pass.
	if len(tree1) < 256 || len(dump1) < 256 {
		t.Fatalf("suspiciously small artifacts: tree %dB dump %dB", len(tree1), len(dump1))
	}
}

// TestChromeGoldenDeterminismTwoSeeds pins the Chrome exporter's golden
// property for make check: for each seed, two runs export byte-identical
// JSON, and the two seeds both produce substantial traces.
func TestChromeGoldenDeterminismTwoSeeds(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		a, _ := tracedCycle(t, seed, cruz.CheckpointOptions{})
		b, _ := tracedCycle(t, seed, cruz.CheckpointOptions{})
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: same-seed runs exported different Chrome traces", seed)
		}
		if len(a) < 4096 {
			t.Errorf("seed %d: Chrome trace suspiciously small (%d bytes)", seed, len(a))
		}
	}
}
