package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"cruz/internal/metrics"
)

// TestScalingMatchesCheckedInReport gates the virtual clock exactly: the
// A9 cells — root messages and commit latency of one checkpoint at n = 8,
// 64 and 256, flat and tree — are deterministic by seed, so a run must
// reproduce the checked-in BENCH_cruz.json to the last digit. A digit that
// moves is a control message added, removed, resized or reordered on the
// coordination path; regenerate the report (make bench) only with that
// cause named in CHANGES.md.
func TestScalingMatchesCheckedInReport(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_cruz.json")
	if err != nil {
		t.Fatal(err)
	}
	var want BenchReport
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	got := &BenchReport{Scale: want.Scale, Experiments: make(map[string]metrics.Dist)}
	if err := scalingBench(got, ScalingNodeCounts, want.Scale); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, key := range got.Keys() {
		if !strings.HasPrefix(key, "scale_") {
			continue // engine_*: host throughput of the same cells
		}
		cells++
		if w, ok := want.Experiments[key]; !ok || w != got.Experiments[key] {
			t.Errorf("%s = %v, BENCH_cruz.json has %v", key, got.Experiments[key].Mean, w.Mean)
		}
	}
	if cells != 4*len(ScalingNodeCounts) {
		t.Errorf("compared %d cells, want messages and latency for flat and tree at each of %v", cells, ScalingNodeCounts)
	}
}
