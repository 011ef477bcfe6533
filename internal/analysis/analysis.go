// Package analysis is cruzvet: a determinism-and-invariant lint suite
// for the Cruz tree.
//
// Every guarantee the reproduction makes — trace-identical recovery
// runs, restore-equivalence across checkpoint routes, the paper's TCP
// invariants — rests on the simulation being a pure function of its
// seed. A single stray time.Now, an unseeded rand call, a raw
// goroutine, or a map iteration whose order leaks into sim-visible
// state silently breaks that, and is only caught (if ever) by
// downstream trace-diff tests. cruzvet makes determinism a
// compile-time property instead.
//
// The package is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis pass shape (that module is not
// vendored here): an Analyzer owns a Run func invoked once per
// type-checked package with a Pass carrying the syntax, type
// information, and a Report sink. Analyzers that need whole-program
// facts (oplifecycle) additionally export per-package facts and a Finish
// hook that runs after every package has been visited.
//
// Suppressions: a finding is silenced by the comment
//
//	//cruzvet:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — a bare allow is itself reported — and every suppression
// is counted in `cruzvet -stats` output so exceptions stay visible.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Suppressed is a finding silenced by a //cruzvet:allow directive.
type Suppressed struct {
	Diagnostic
	Reason string
}

// Directive is one parsed //cruzvet:allow comment.
type Directive struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	used     int
}

// Analyzer is one cruzvet pass.
type Analyzer struct {
	Name string
	Doc  string
	// Run is invoked once per loaded package.
	Run func(*Pass)
	// Finish, if non-nil, runs after Run has seen every package; it
	// receives the Suite so it can combine per-package facts (stored
	// via Pass.ExportFact) into whole-program findings.
	Finish func(*Suite)
}

// Pass carries one package's worth of material to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Suite     *Suite
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Suite.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact stores a per-package fact for the pass's analyzer, keyed
// by the package path, for use from Analyzer.Finish.
func (p *Pass) ExportFact(fact any) {
	key := factKey{p.Analyzer.Name, p.Pkg.Path()}
	p.Suite.facts[key] = fact
}

type factKey struct {
	analyzer, pkg string
}

// Config tunes a Suite.
type Config struct {
	// SimSide lists the packages treated as "inside the simulation":
	// packages whose behaviour must be a pure function of the seed.
	// nodeterminism only fires there. An entry names one import path, or
	// — ending in "/..." — a path and every package below it, as go
	// command patterns do. Empty means DefaultSimSide.
	SimSide []string
	// SchedulerShim lists packages allowed to own raw concurrency and
	// ticker primitives (the discrete-event engine itself), in SimSide's
	// notation. Empty means DefaultSchedulerShim.
	SchedulerShim []string
}

// DefaultSimSide is the sim-side package set enforced in this tree: the
// root package and the internal packages that run inside engine events.
// internal/trace and internal/metrics are deliberately included: their
// output is exactly the artifact that must be seed-deterministic, as is
// internal/scenario's, which drives the engine. The commands (and the
// file I/O they do) and the analysis itself run on the host.
var DefaultSimSide = []string{
	"cruz",
	"cruz/internal/apps/...",
	"cruz/internal/batch",
	"cruz/internal/ckpt",
	"cruz/internal/coord",
	"cruz/internal/core",
	"cruz/internal/ctl",
	"cruz/internal/dhcp",
	"cruz/internal/ether",
	"cruz/internal/exp",
	"cruz/internal/flush",
	"cruz/internal/gobmemo",
	"cruz/internal/kernel",
	"cruz/internal/mem",
	"cruz/internal/metrics",
	"cruz/internal/scenario",
	"cruz/internal/sim",
	"cruz/internal/tcpip",
	"cruz/internal/trace/...",
	"cruz/internal/zap",
}

// DefaultSchedulerShim is the one package allowed to use raw scheduling
// primitives: the discrete-event engine.
var DefaultSchedulerShim = []string{"cruz/internal/sim"}

// Suite runs a set of analyzers over loaded packages and owns the
// shared diagnostic, suppression, and fact state.
type Suite struct {
	Analyzers []*Analyzer
	Config    Config

	fset       *token.FileSet
	facts      map[factKey]any
	directives []*Directive
	raw        []Diagnostic // pre-suppression findings
	malformed  []Diagnostic // bad //cruzvet:allow comments

	// Interprocedural summary state (summary.go): the whole-program
	// funcKey → FuncEffects table and the set of packages already
	// summarized into it.
	effects     map[string]*FuncEffects
	effectsDone map[string]bool

	timings map[string]time.Duration // per-analyzer wall time
}

// NewSuite builds a suite over the given analyzers.
func NewSuite(cfg Config, analyzers ...*Analyzer) *Suite {
	if len(cfg.SimSide) == 0 {
		cfg.SimSide = DefaultSimSide
	}
	if len(cfg.SchedulerShim) == 0 {
		cfg.SchedulerShim = DefaultSchedulerShim
	}
	return &Suite{
		Analyzers: analyzers,
		Config:    cfg,
		facts:     make(map[factKey]any),
	}
}

// SimSide reports whether the import path is inside the simulation
// boundary.
func (s *Suite) SimSide(path string) bool {
	return inSet(path, s.Config.SimSide)
}

// SchedulerShim reports whether the package may own raw scheduling
// primitives.
func (s *Suite) SchedulerShim(path string) bool {
	return inSet(path, s.Config.SchedulerShim)
}

// inSet reports whether path is in a package set written in SimSide's
// notation.
func inSet(path string, set []string) bool {
	for _, p := range set {
		base, tree := strings.CutSuffix(p, "/...")
		if path == base || tree && strings.HasPrefix(path, base+"/") {
			return true
		}
	}
	return false
}

func (s *Suite) report(d Diagnostic) { s.raw = append(s.raw, d) }

// Facts returns all facts exported by analyzer, keyed by package path.
func (s *Suite) Facts(analyzer string) map[string]any {
	out := make(map[string]any)
	for k, v := range s.facts {
		if k.analyzer == analyzer {
			out[k.pkg] = v
		}
	}
	return out
}

// ReportFinish records a whole-program finding from an
// Analyzer.Finish hook, attributed to the named analyzer.
func (s *Suite) ReportFinish(analyzer string, pos token.Position, format string, args ...any) {
	s.report(Diagnostic{Pos: pos, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)})
}

var allowRE = regexp.MustCompile(`^//cruzvet:allow(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// collectDirectives parses //cruzvet:allow comments from a package's
// files. Malformed directives (missing analyzer or reason) are
// reported as findings so an ineffective suppression never passes
// silently.
func (s *Suite) collectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//cruzvet:") {
					continue
				}
				m := allowRE.FindStringSubmatch(c.Text)
				pos := fset.Position(c.Pos())
				if m == nil {
					s.malformed = append(s.malformed, Diagnostic{
						Pos: pos, Analyzer: "cruzvet",
						Message: fmt.Sprintf("unrecognized cruzvet directive %q (want //cruzvet:allow <analyzer> <reason>)", c.Text),
					})
					continue
				}
				name, reason := m[1], m[2]
				switch {
				case name == "" || reason == "":
					s.malformed = append(s.malformed, Diagnostic{
						Pos: pos, Analyzer: "cruzvet",
						Message: fmt.Sprintf("malformed //cruzvet:allow: need both an analyzer name and a reason, got %q", c.Text),
					})
				case !known[name]:
					s.malformed = append(s.malformed, Diagnostic{
						Pos: pos, Analyzer: "cruzvet",
						Message: fmt.Sprintf("//cruzvet:allow names unknown analyzer %q", name),
					})
				default:
					s.directives = append(s.directives, &Directive{Pos: pos, Analyzer: name, Reason: reason})
				}
			}
		}
	}
}

// Result is the outcome of a suite run.
type Result struct {
	// Diags are the unsuppressed findings, sorted by position. A
	// non-empty slice means the tree is not clean.
	Diags []Diagnostic
	// Suppressed are findings silenced by //cruzvet:allow, with the
	// annotated reason.
	Suppressed []Suppressed
	// Unused are allow directives that silenced nothing; they are
	// informational (stale annotations worth deleting).
	Unused []Directive
	// Packages counts the packages analyzed.
	Packages int
}

// Run executes every analyzer over every package, applies
// //cruzvet:allow suppression, and returns the result.
func (s *Suite) Run(pkgs []*Package) *Result {
	known := make(map[string]bool)
	for _, a := range s.Analyzers {
		known[a.Name] = true
	}
	if s.timings == nil {
		s.timings = make(map[string]time.Duration)
	}
	for _, pkg := range pkgs {
		s.fset = pkg.Fset
		s.collectDirectives(pkg.Fset, pkg.Files, known)
		for _, a := range s.Analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Suite:     s,
			}
			t0 := time.Now()
			a.Run(pass)
			s.timings[a.Name] += time.Since(t0)
		}
	}
	for _, a := range s.Analyzers {
		if a.Finish != nil {
			t0 := time.Now()
			a.Finish(s)
			s.timings[a.Name] += time.Since(t0)
		}
	}

	res := &Result{Packages: len(pkgs)}
	byLine := make(map[string][]*Directive)
	lineKey := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	for _, d := range s.directives {
		k := lineKey(d.Pos.Filename, d.Pos.Line)
		byLine[k] = append(byLine[k], d)
	}
	match := func(d Diagnostic) *Directive {
		// A directive suppresses findings of its analyzer on its own
		// line and on the line below (directive-above-statement form).
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, dir := range byLine[lineKey(d.Pos.Filename, line)] {
				if dir.Analyzer == d.Analyzer {
					return dir
				}
			}
		}
		return nil
	}
	for _, d := range s.raw {
		if dir := match(d); dir != nil {
			dir.used++
			res.Suppressed = append(res.Suppressed, Suppressed{Diagnostic: d, Reason: dir.Reason})
			continue
		}
		res.Diags = append(res.Diags, d)
	}
	res.Diags = append(res.Diags, s.malformed...)
	for _, dir := range s.directives {
		if dir.used == 0 {
			res.Unused = append(res.Unused, *dir)
		}
	}
	sortDiags(res.Diags)
	sort.Slice(res.Suppressed, func(i, j int) bool {
		return diagLess(res.Suppressed[i].Diagnostic, res.Suppressed[j].Diagnostic)
	})
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool { return diagLess(ds[i], ds[j]) })
}

func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	// Message is the final tiebreak so equal-position findings from one
	// analyzer still sort deterministically (back-to-back runs must be
	// byte-identical).
	return a.Message < b.Message
}

// AnalyzerTime is one analyzer's cumulative wall time across Run and
// Finish, for -stats output.
type AnalyzerTime struct {
	Analyzer string
	Duration time.Duration
}

// Timings returns per-analyzer wall time in registration order. Only
// meaningful after Run.
func (s *Suite) Timings() []AnalyzerTime {
	out := make([]AnalyzerTime, 0, len(s.Analyzers))
	for _, a := range s.Analyzers {
		out = append(out, AnalyzerTime{Analyzer: a.Name, Duration: s.timings[a.Name]})
	}
	return out
}

// Stats summarizes a result per analyzer for -stats output.
type Stats struct {
	Analyzer   string
	Findings   int
	Suppressed int
}

// Stats aggregates per-analyzer counts, in analyzer registration order.
func (s *Suite) Stats(res *Result) []Stats {
	idx := make(map[string]int, len(s.Analyzers)+1)
	out := make([]Stats, 0, len(s.Analyzers)+1)
	for _, a := range s.Analyzers {
		idx[a.Name] = len(out)
		out = append(out, Stats{Analyzer: a.Name})
	}
	get := func(name string) *Stats {
		i, ok := idx[name]
		if !ok {
			idx[name] = len(out)
			out = append(out, Stats{Analyzer: name})
			i = len(out) - 1
		}
		return &out[i]
	}
	for _, d := range res.Diags {
		get(d.Analyzer).Findings++
	}
	for _, d := range res.Suppressed {
		get(d.Analyzer).Suppressed++
	}
	return out
}
