package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/scenario"
)

// TestREADMEExamples runs every cruzsim command README.md shows with its
// output and compares the two, the trace file's name aside: exactly, or,
// where the README elides with "...", piece by piece in order.
func TestREADMEExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const prompt = "$ go run ./cmd/cruzsim "
	blocks := strings.Split(string(readme), prompt)[1:]
	if len(blocks) < 2 {
		t.Fatalf("README shows %d cruzsim runs, want the worked example and the failover", len(blocks))
	}
	for _, b := range blocks {
		line, rest, _ := strings.Cut(b, "\n")
		want, _, _ := strings.Cut(rest, "```")
		out := filepath.Join(t.TempDir(), "out.json")
		args := strings.Fields(strings.ReplaceAll(line, "out.json", out))
		var got strings.Builder
		if err := run(args, &got); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		have := strings.ReplaceAll(got.String(), out, "out.json")
		pieces := strings.Split(want, "...")
		if len(pieces) == 1 {
			if have != want {
				t.Errorf("README shows for %q:\n%s\nthe row prints:\n%s", line, want, have)
			}
			continue
		}
		for _, p := range pieces {
			i := strings.Index(have, p)
			if i < 0 {
				t.Errorf("README shows for %q a piece the row does not print in that order:\n%s\nthe row prints:\n%s", line, p, got.String())
				break
			}
			have = have[i+len(p):]
		}
	}
}

// TestFlagsTheRowDoesNotUse: -nodes and -group are errors for a row that
// does not scale.
func TestFlagsTheRowDoesNotUse(t *testing.T) {
	for _, args := range [][]string{{"-scenario", "migrate", "-nodes", "4"}, {"-scenario", "counter", "-group", "2"}} {
		if err := run(args, new(strings.Builder)); err == nil {
			t.Errorf("cruzsim %v ran", args)
		}
	}
}

// TestFailedRowIsExplained: a row that fails still prints its flight
// recorder and writes its trace, then returns the error. Here a node dies
// before the ring was ever checkpointed, so its lease expires and there is
// nothing to recover from.
func TestFailedRowIsExplained(t *testing.T) {
	defer func(table []scenario.Row) { scenario.Table = table }(scenario.Table)
	scenario.Table = append(scenario.Table, scenario.Row{Name: "unrecoverable",
		Deploy: scenario.Deployment{Config: cruz.Config{Nodes: 3, AutoRecover: true}, Ring: &scenario.Ring{Name: "slm", SLM: slm.Config{
			TotalComputePerStep: 80 * cruz.Millisecond, StepOverhead: 5 * cruz.Millisecond, HaloBytes: 32 << 10, GridBytes: 1 << 20, DirtyPagesPerStep: 8, Port: 9200}}},
		Steps: []scenario.Step{{Op: scenario.Run, For: 300 * cruz.Millisecond}, {Op: scenario.Fail, Node: -1}},
	})
	file := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	err := run([]string{"-scenario", "unrecoverable", "-trace", file}, &out)
	if err == nil {
		t.Fatalf("the row passed:\n%s", out.String())
	}
	for _, want := range []string{"trigger=lease.expiry", "wrote ", "flight recorder: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q before the error %v:\n%s", want, err, out.String())
		}
	}
	if _, err := os.Stat(file); err != nil {
		t.Error(err)
	}
}
