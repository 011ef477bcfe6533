package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
