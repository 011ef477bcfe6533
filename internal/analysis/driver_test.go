package analysis

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestCruzvetStatsOutput drives the actual cmd/cruzvet binary over the
// allowok fixture end to end: exit status 0 (everything suppressed),
// suppression counts in -stats output, and the stale directive
// surfaced.
func TestCruzvetStatsOutput(t *testing.T) {
	cmd := exec.Command("go", "run", "../../cmd/cruzvet",
		"-stats",
		"-simside", fixtureImport+"allowok",
		"./testdata/src/allowok")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cruzvet exited non-zero: %v\n%s", err, out)
	}
	s := string(out)
	for _, re := range []string{
		`(?m)^cruzvet: 1 packages, 0 findings, 3 suppressed$`,
		`(?m)^\s+nodeterminism\s+0 findings, 2 suppressed \([0-9]`,
		`(?m)^\s+maporder\s+0 findings, 1 suppressed \([0-9]`,
		`(?m)^\s+load\+typecheck\s+[0-9]`,
		`(?m)allowed .*allowok\.go.*reason: host timestamp`,
		`(?m)stale //cruzvet:allow spanleak`,
	} {
		if !regexp.MustCompile(re).MatchString(s) {
			t.Errorf("cruzvet -stats output missing %q:\n%s", re, s)
		}
	}
}

// TestCruzvetStrictAllow proves -strict-allow turns a stale directive
// into a gating failure: the allowok fixture carries one on purpose.
func TestCruzvetStrictAllow(t *testing.T) {
	cmd := exec.Command("go", "run", "../../cmd/cruzvet",
		"-strict-allow",
		"-simside", fixtureImport+"allowok",
		"./testdata/src/allowok")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("cruzvet -strict-allow exited zero despite a stale directive:\n%s", out)
	}
	if !strings.Contains(string(out), "stale //cruzvet:allow spanleak") {
		t.Errorf("cruzvet -strict-allow did not name the stale directive:\n%s", out)
	}
}

// TestCruzvetList pins the default analyzer roster: exactly these seven
// are registered in cmd/cruzvet.
func TestCruzvetList(t *testing.T) {
	cmd := exec.Command("go", "run", "../../cmd/cruzvet", "-list")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cruzvet -list: %v\n%s", err, out)
	}
	names := []string{
		"nodeterminism", "maporder", "spanleak",
		"poolleak", "oplifecycle", "ctxprop", "errdrop",
	}
	for _, name := range names {
		if !regexp.MustCompile(`(?m)^` + name + `\s`).MatchString(string(out)) {
			t.Errorf("cruzvet -list missing analyzer %q:\n%s", name, out)
		}
	}
	if n := strings.Count(strings.TrimSpace(string(out)), "\n") + 1; n != len(names) {
		t.Errorf("cruzvet -list shows %d analyzers, want %d:\n%s", n, len(names), out)
	}
}

// TestCruzvetExitCode proves the gate actually gates: an unsuppressed
// finding makes the driver exit 1 and print it.
func TestCruzvetExitCode(t *testing.T) {
	cmd := exec.Command("go", "run", "../../cmd/cruzvet", "./testdata/src/allowbad")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("cruzvet exited zero on a package with findings:\n%s", out)
	}
	if !strings.Contains(string(out), "[maporder]") {
		t.Errorf("cruzvet output did not print the maporder finding:\n%s", out)
	}
}
