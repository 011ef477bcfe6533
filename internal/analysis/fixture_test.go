package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureImport is the module path prefix of the fixture packages.
const fixtureImport = "cruz/internal/analysis/testdata/src/"

// loadFixture loads one testdata/src package. The go command excludes
// testdata directories from wildcard patterns, so fixtures never leak
// into `cruzvet ./...` runs, but explicit paths load fine.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load("", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs
}

// want is one expectation: a regexp that must match a diagnostic
// reported on its line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("// want (.*)$")
var wantPatRE = regexp.MustCompile("`([^`]*)`")

// collectWants parses `// want ...` comments (one or more backquoted
// regexps per line) from every .go file of a fixture.
func collectWants(t *testing.T, name string) []want {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats := wantPatRE.FindAllStringSubmatch(m[1], -1)
			if len(pats) == 0 {
				t.Fatalf("%s:%d: `// want` with no backquoted pattern", path, i+1)
			}
			for _, p := range pats {
				re, err := regexp.Compile(p[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, p[1], err)
				}
				wants = append(wants, want{file: abs, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runFixture runs the given analyzers over a fixture and checks the
// unsuppressed diagnostics against the fixture's want comments, both
// ways: every want must be hit (the analyzer is not weakened) and
// every diagnostic must be wanted (no false positives).
func runFixture(t *testing.T, name string, cfg Config, analyzers ...*Analyzer) *Result {
	t.Helper()
	pkgs := loadFixture(t, name)
	suite := NewSuite(cfg, analyzers...)
	res := suite.Run(pkgs)
	checkWants(t, name, res)
	return res
}

func checkWants(t *testing.T, name string, res *Result) {
	t.Helper()
	wants := collectWants(t, name)
	matched := make([]bool, len(wants))
	for _, d := range res.Diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", name, d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: no diagnostic matched want %q at %s:%d", name, w.re, w.file, w.line)
		}
	}
}

func TestNoDeterminismFixture(t *testing.T) {
	runFixture(t, "nodet",
		Config{SimSide: []string{fixtureImport + "nodet"}}, NoDeterminism)
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, "mapord", Config{}, MapOrder)
}

func TestSpanLeakFixture(t *testing.T) {
	runFixture(t, "spanleakfix", Config{}, SpanLeak)
}

// TestTreeLeaderFixture covers the group-leader shapes hierarchical
// coordination added: a span leaked across a leader-promotion return
// path and the per-member relay loop leak.
func TestTreeLeaderFixture(t *testing.T) {
	runFixture(t, "treeleader", Config{}, SpanLeak)
}

// TestMigrateFixture covers the code shapes live migration added: the
// per-round phase span leaked across the round loop's abort and
// convergence early returns.
func TestMigrateFixture(t *testing.T) {
	runFixture(t, "migratefix", Config{}, SpanLeak)
}

func TestPoolLeakFixture(t *testing.T) {
	runFixture(t, "poolleakfix", Config{}, PoolLeak)
}

func TestOpLifecycleFixture(t *testing.T) {
	runFixture(t, "oplifefix", Config{}, OpLifecycle)
}

func TestCtxPropFixture(t *testing.T) {
	runFixture(t, "ctxpropfix", Config{}, CtxProp)
}

// TestECFixture covers the code shapes the erasure-coded storage tier
// added: a pooled shard buffer leaked across the decode-failure early
// return, and reconstruct helpers that drop the recovery op's trace
// context (directly, transitively, and via a plain Send).
func TestECFixture(t *testing.T) {
	runFixture(t, "ecfix", Config{}, PoolLeak, CtxProp)
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, "errdropfix",
		Config{SimSide: []string{fixtureImport + "errdropfix"}}, ErrDrop)
}

// TestAllowNewFixture proves the //cruzvet:allow escape hatch covers
// the v2 analyzers: one finding per analyzer, each annotated, zero
// unsuppressed, zero stale.
func TestAllowNewFixture(t *testing.T) {
	cfg := Config{SimSide: []string{fixtureImport + "allownew"}}
	pkgs := loadFixture(t, "allownew")
	suite := NewSuite(cfg, PoolLeak, OpLifecycle, CtxProp, ErrDrop)
	res := suite.Run(pkgs)
	if len(res.Diags) != 0 {
		t.Errorf("allownew: want 0 unsuppressed findings, got %d:", len(res.Diags))
		for _, d := range res.Diags {
			t.Errorf("  %s", d)
		}
	}
	if len(res.Suppressed) != 4 {
		t.Errorf("allownew: want 4 suppressed findings (one per v2 analyzer), got %d:", len(res.Suppressed))
		for _, sup := range res.Suppressed {
			t.Errorf("  %s", sup.Diagnostic)
		}
	}
	byAnalyzer := make(map[string]int)
	for _, sup := range res.Suppressed {
		byAnalyzer[sup.Analyzer]++
	}
	for _, name := range []string{"poolleak", "oplifecycle", "ctxprop", "errdrop"} {
		if byAnalyzer[name] != 1 {
			t.Errorf("allownew: want exactly 1 %s suppression, got %d", name, byAnalyzer[name])
		}
	}
	if len(res.Unused) != 0 {
		t.Errorf("allownew: want no stale directives, got %+v", res.Unused)
	}
}

// TestAllowFixture proves the //cruzvet:allow escape hatch: annotated
// findings are silenced, counted as suppressions, and stale
// directives are surfaced as unused.
func TestAllowFixture(t *testing.T) {
	cfg := Config{SimSide: []string{fixtureImport + "allowok"}}
	pkgs := loadFixture(t, "allowok")
	suite := NewSuite(cfg, NoDeterminism, MapOrder, SpanLeak)
	res := suite.Run(pkgs)
	if len(res.Diags) != 0 {
		t.Errorf("allowok: want 0 unsuppressed findings, got %d:", len(res.Diags))
		for _, d := range res.Diags {
			t.Errorf("  %s", d)
		}
	}
	if len(res.Suppressed) != 3 {
		t.Errorf("allowok: want 3 suppressed findings, got %d", len(res.Suppressed))
	}
	for _, sup := range res.Suppressed {
		if sup.Reason == "" {
			t.Errorf("allowok: suppression at %s lost its reason", sup.Pos)
		}
	}
	if len(res.Unused) != 1 || res.Unused[0].Analyzer != "spanleak" {
		t.Errorf("allowok: want exactly the stale spanleak directive flagged unused, got %+v", res.Unused)
	}
	stats := suite.Stats(res)
	counts := make(map[string]Stats)
	for _, st := range stats {
		counts[st.Analyzer] = st
	}
	if got := counts["nodeterminism"]; got.Findings != 0 || got.Suppressed != 2 {
		t.Errorf("allowok: nodeterminism stats = %+v, want 0 findings / 2 suppressed", got)
	}
	if got := counts["maporder"]; got.Findings != 0 || got.Suppressed != 1 {
		t.Errorf("allowok: maporder stats = %+v, want 0 findings / 1 suppressed", got)
	}
}

// TestAllowBadFixture proves malformed or misdirected directives
// cannot silence findings and are themselves reported.
func TestAllowBadFixture(t *testing.T) {
	pkgs := loadFixture(t, "allowbad")
	suite := NewSuite(Config{}, NoDeterminism, MapOrder, SpanLeak)
	res := suite.Run(pkgs)
	var malformed, unknown, maporder int
	for _, d := range res.Diags {
		switch {
		case strings.Contains(d.Message, "malformed //cruzvet:allow"):
			malformed++
		case strings.Contains(d.Message, "unknown analyzer"):
			unknown++
		case d.Analyzer == "maporder":
			maporder++
		default:
			t.Errorf("allowbad: unexpected diagnostic: %s", d)
		}
	}
	if malformed != 2 {
		t.Errorf("allowbad: want 2 malformed-directive findings, got %d", malformed)
	}
	if unknown != 1 {
		t.Errorf("allowbad: want 1 unknown-analyzer finding, got %d", unknown)
	}
	if maporder != 1 {
		t.Errorf("allowbad: the misdirected allow must not suppress the maporder finding (got %d findings)", maporder)
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("allowbad: nothing should be suppressed, got %d", len(res.Suppressed))
	}
	if len(res.Unused) != 1 {
		t.Errorf("allowbad: the misdirected spanleak allow should be unused, got %+v", res.Unused)
	}
}

// allAnalyzers returns the full default suite, in the same order
// cmd/cruzvet registers them.
func allAnalyzers() []*Analyzer {
	return []*Analyzer{NoDeterminism, MapOrder, SpanLeak,
		PoolLeak, OpLifecycle, CtxProp, ErrDrop}
}

// loadTree loads and type-checks the whole module once per test
// process; TestCleanTree and TestDeterministicOutput share the result
// (packages are read-only to the suite).
var treeOnce sync.Once
var treePkgs []*Package
var treeErr error

func loadTree(t *testing.T) []*Package {
	t.Helper()
	treeOnce.Do(func() { treePkgs, treeErr = Load("", "cruz/...") })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treePkgs
}

// TestCleanTree is the enforcement test: the whole module must be free
// of unsuppressed findings under all seven analyzers. It is the same
// invocation `make check` gates on, so a regression fails both.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree")
	}
	pkgs := loadTree(t)
	suite := NewSuite(Config{}, allAnalyzers()...)
	res := suite.Run(pkgs)
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
	if res.Packages < 20 {
		t.Errorf("suspiciously few packages analyzed: %d", res.Packages)
	}
}

// formatResult renders everything cruzvet prints from a Result (minus
// wall-clock timings) so determinism can be asserted byte-for-byte.
func formatResult(suite *Suite, res *Result) string {
	var b strings.Builder
	for _, d := range res.Diags {
		fmt.Fprintln(&b, d)
	}
	for _, st := range suite.Stats(res) {
		fmt.Fprintf(&b, "%s %d %d\n", st.Analyzer, st.Findings, st.Suppressed)
	}
	for _, sup := range res.Suppressed {
		fmt.Fprintf(&b, "allowed %s: [%s] %s (%s)\n", sup.Pos, sup.Analyzer, sup.Message, sup.Reason)
	}
	for _, u := range res.Unused {
		fmt.Fprintf(&b, "stale %s %s\n", u.Analyzer, u.Pos)
	}
	return b.String()
}

// TestDeterministicOutput runs the full seven-analyzer suite twice
// back-to-back over the same whole-tree load and requires byte-identical
// output and identical per-analyzer stats: analyzer scheduling,
// fact-merging Finish hooks, and diagnostic sorting must not leak map
// iteration order.
func TestDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree")
	}
	pkgs := loadTree(t)
	run := func() (string, []Stats) {
		suite := NewSuite(Config{}, allAnalyzers()...)
		res := suite.Run(pkgs)
		return formatResult(suite, res), suite.Stats(res)
	}
	out1, stats1 := run()
	out2, stats2 := run()
	if out1 != out2 {
		t.Errorf("back-to-back cruzvet runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	if len(stats1) != len(stats2) {
		t.Fatalf("stats length differs: %d vs %d", len(stats1), len(stats2))
	}
	for i := range stats1 {
		if stats1[i] != stats2[i] {
			t.Errorf("stats[%d] differ: %+v vs %+v", i, stats1[i], stats2[i])
		}
	}
}
