// Command cruzvet runs the Cruz determinism-and-invariant analyzer
// suite (internal/analysis) over the tree.
//
// Usage:
//
//	cruzvet [-stats] [-strict-allow] [-run name,name] [packages]
//
// With no package arguments it analyzes ./... . The exit status is 1
// if any unsuppressed finding (or malformed //cruzvet:allow
// directive) is reported, so `make check` and CI can gate on it.
//
// Findings are silenced with a //cruzvet:allow <analyzer> <reason>
// comment on the offending line or the line above; -stats reports how
// many findings each analyzer produced, how many were suppressed, and
// per-analyzer wall time, and lists stale (unused) allow directives.
// With -strict-allow a stale directive is itself a gating failure:
// exceptions must be deleted the moment the code they excused is gone.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cruz/internal/analysis"
)

func main() {
	var (
		stats       = flag.Bool("stats", false, "print per-analyzer finding/suppression counts, timings, and stale allow directives")
		strictAllow = flag.Bool("strict-allow", false, "exit 1 if any //cruzvet:allow directive suppresses nothing")
		run         = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list        = flag.Bool("list", false, "list available analyzers and exit")
		simside     = flag.String("simside", "", "comma-separated import paths to treat as sim-side, in addition to the defaults (a trailing /... adds every package below one)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cruzvet [-stats] [-strict-allow] [-run name,name] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := []*analysis.Analyzer{
		analysis.NoDeterminism,
		analysis.MapOrder,
		analysis.SpanLeak,
		analysis.PoolLeak,
		analysis.OpLifecycle,
		analysis.CtxProp,
		analysis.ErrDrop,
	}
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	selected := all
	if *run != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "cruzvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadStart := time.Now()
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cruzvet: %v\n", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)

	cfg := analysis.Config{}
	if *simside != "" {
		cfg.SimSide = append(append([]string(nil), analysis.DefaultSimSide...), strings.Split(*simside, ",")...)
	}
	suite := analysis.NewSuite(cfg, selected...)
	res := suite.Run(pkgs)

	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if *stats {
		fmt.Printf("cruzvet: %d packages, %d findings, %d suppressed\n",
			res.Packages, len(res.Diags), len(res.Suppressed))
		timings := make(map[string]time.Duration)
		for _, tm := range suite.Timings() {
			timings[tm.Analyzer] = tm.Duration
		}
		for _, st := range suite.Stats(res) {
			fmt.Printf("  %-16s %d findings, %d suppressed (%s)\n",
				st.Analyzer, st.Findings, st.Suppressed, timings[st.Analyzer].Round(time.Millisecond))
		}
		fmt.Printf("  load+typecheck   %s\n", loadTime.Round(time.Millisecond))
		for _, sup := range res.Suppressed {
			fmt.Printf("  allowed %s: [%s] %s (reason: %s)\n", sup.Pos, sup.Analyzer, sup.Message, sup.Reason)
		}
		for _, u := range res.Unused {
			fmt.Printf("  stale //cruzvet:allow %s at %s (suppresses nothing)\n", u.Analyzer, u.Pos)
		}
	}
	if *strictAllow && len(res.Unused) > 0 {
		for _, u := range res.Unused {
			fmt.Printf("%s: [cruzvet] stale //cruzvet:allow %s suppresses nothing: delete it\n", u.Pos, u.Analyzer)
		}
		os.Exit(1)
	}
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}
