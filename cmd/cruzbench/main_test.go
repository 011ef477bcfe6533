package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// record runs cruzbench with args plus -json and returns the record file.
func record(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "record.json")
	if code := run(append(args, "-json", path), io.Discard); code != 0 {
		t.Fatalf("cruzbench %v exited %d", args, code)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func cells(t *testing.T, blob []byte) map[string]float64 {
	t.Helper()
	var m map[string]float64
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScalingMatchesCheckedInReport gates the virtual clock exactly: the
// A9 cells — group size, root messages and commit latency of one
// checkpoint at n = 8, 64 and 256, flat and tree — are deterministic by
// seed, so a run must reproduce the checked-in BENCH_cruz.json to the
// last digit. A digit that moves is a control message added, removed,
// resized or reordered on the coordination path; regenerate the record
// (make bench shows the diff) only with that cause named in CHANGES.md.
func TestScalingMatchesCheckedInReport(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_cruz.json")
	if err != nil {
		t.Fatal(err)
	}
	want := cells(t, blob)
	got := cells(t, record(t, "-exp", "scale", "-scale", strconv.FormatFloat(want["run/scale"], 'g', -1, 64)))
	n := 0
	for key, v := range got {
		if !strings.HasPrefix(key, "scale/") {
			continue
		}
		n++
		if w, ok := want[key]; !ok || w != v {
			t.Errorf("%s = %v, BENCH_cruz.json has %v", key, v, w)
		}
	}
	if n != 3*2*3 {
		t.Errorf("compared %d cells, want group, root messages and latency for flat and tree at each of 3 node counts", n)
	}
}

// TestRecordIsByteIdentical runs one experiment twice: the records must
// match byte for byte, which is what lets make bench compare the whole
// evaluation against BENCH_cruz.json with cmp.
func TestRecordIsByteIdentical(t *testing.T) {
	a := record(t, "-exp", "scale", "-scale", "0.25")
	b := record(t, "-exp", "scale", "-scale", "0.25")
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs wrote different records:\n%s\n---\n%s", a, b)
	}
	if got := cells(t, a); len(got) != 3+3*2*3 {
		t.Fatalf("record holds %d cells, want the 3 run parameters and 18 A9 cells: %v", len(got), got)
	}
}
