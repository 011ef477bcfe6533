// Command bench is the repository's benchmark: four lifecycle workloads
// on the simulated cluster, measured on two clocks. See README.md for
// the workloads, every metric, and how to read a result; BENCHMARK.json
// at the repository root is the contract this program checks itself
// against.
//
//	bash bench/run.sh -list
//	bash bench/run.sh -workload bulk4 -seed 1
//	bash bench/run.sh -out /tmp/a.json        # all workloads, both tables
//	bash bench/run.sh -agree /tmp/a.json /tmp/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// environment is recorded with every -out file: host numbers from two
// files are only comparable when these match.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GODEBUG    string `json:"godebug"` // run.sh sets madvdontneed=0
}

// report is the -out file.
type report struct {
	Env       environment           `json:"env"`
	Workloads map[string]*runResult `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (default: all of them)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", 0, "host seconds to measure per workload (0: run_seconds of BENCHMARK.json)")
		passes   = fs.Int("passes", 0, "measure exactly this many passes instead of -seconds")
		traceSel = fs.Int("trace", -1, "0: end-to-end metrics only; 1: add the traced pass and report per-layer metrics only (default: both)")
		out      = fs.String("out", "", "write the full report (every metric with n and quartiles) to this JSON file")
		traceout = fs.String("traceout", "", "write Chrome-trace JSON of the traced pass (harness spans and the program's trace) into this directory")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprof  = fs.String("memprofile", "", "write an allocation profile at exit to this file")
		list     = fs.Bool("list", false, "print the workloads and every metric, then exit")
		agree    = fs.Bool("agree", false, "compare two -out files given as arguments; exit non-zero if an end-to-end metric differs by more than its bound")
		quick    = fs.Bool("quick", false, "smoke-test size: 1 MiB grids, two checkpoints, at most 16 nodes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *agree {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-agree takes two -out files"))
		}
		return agreeFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// The program's own names must be BENCHMARK.json's, and the reverse.
	bj, err := loadContract()
	if err != nil {
		return fail(err)
	}
	if err := bj.check(); err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(bj.RunSeconds)
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		selected = []workload{*w}
	}

	// One goroutine drives the simulator; the second processor is for
	// the garbage collector and the EC worker pool, as on a small host.
	runtime.GOMAXPROCS(2)
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		Env:       environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GODEBUG: os.Getenv("GODEBUG")},
		Workloads: map[string]*runResult{},
	}
	fmt.Fprintf(stdout, "# %s GOMAXPROCS=%d nproc=%d GODEBUG=%q seed=%d\n", rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.GODEBUG, *seed)
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for i := range selected {
		w := &selected[i]
		if *quick {
			q := w.quick()
			w = &q
		}
		res := measure(w, runConfig{seed: *seed, seconds: *seconds, passes: *passes, layers: *traceSel != 0, traceout: *traceout})
		rep.Workloads[w.name] = res
		printResult(stdout, res)
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		line.add(prefix, res, *traceSel)
	}

	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l *resultLine) add(prefix string, res *runResult, traceSel int) {
	l.Correct = l.Correct && res.correct()
	l.Attempted += res.Attempted
	l.Failed += res.Failed
	if traceSel != 1 {
		for name, s := range res.EndToEnd {
			l.Metrics[prefix+name] = lineMetric{s.Value, s.Unit}
		}
	}
	for name, s := range res.PerLayer {
		l.Metrics[prefix+name] = lineMetric{s.Value, s.Unit}
	}
}

func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n== %s: %d measured passes, %d operations attempted, %d failed\n", res.Workload, res.Passes, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(d metricDef, s stat, ok bool) {
		if !ok {
			return
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\tn=%d\tq1=%.6g\tq3=%.6g\t%s\n", d.Name, s.Value, s.Unit, s.Clock, s.N, s.Q1, s.Q3, d.Better)
	}
	for _, d := range endToEnd {
		s, ok := res.EndToEnd[d.Name]
		row(d, s, ok)
	}
	for _, d := range perLayer {
		s, ok := res.PerLayer[d.Name]
		row(d, s, ok)
	}
	tw.Flush()
	for _, e := range res.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
}

func printList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.name, wl.why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END\tUNIT\tCLOCK\tBETTER\tBOUND")
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%g\n", d.Name, d.Unit, d.Clock, d.Better, d.Bound)
	}
	fmt.Fprintln(tw, "\nPER-LAYER\tUNIT\tCLOCK\tBETTER\tSOURCE\tSHOULD MOVE")
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", d.Name, d.Unit, d.Clock, d.Better, d.Source, d.Moves)
	}
	tw.Flush()
}

// contractFile is BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadContract reads BENCHMARK.json from the working directory (run.sh
// runs at the root of the checkout) or its parent (go -C bench run).
func loadContract() (*contractFile, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		blob, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found: %w", err)
	}
	var bj contractFile
	if err := json.Unmarshal(blob, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// check requires BENCHMARK.json and this program to name the same
// workloads and the same metrics with the same unit, direction and bound.
func (bj *contractFile) check() error {
	var diffs []string
	want := map[string]string{}
	for _, w := range workloads {
		want["workload "+w.name] = w.why
	}
	for _, d := range endToEnd {
		want["end_to_end "+d.Name] = fmt.Sprintf("%s %s %g", d.Unit, d.Better, d.Bound)
	}
	for _, d := range perLayer {
		want["per_layer "+d.Name] = fmt.Sprintf("%s %s 0", d.Unit, d.Better)
	}
	got := map[string]string{}
	for _, w := range bj.Workloads {
		got["workload "+w.Name] = w.Why
	}
	for _, m := range bj.EndToEnd {
		got["end_to_end "+m.Name] = fmt.Sprintf("%s %s %g", m.Unit, m.Better, m.Bound)
	}
	for _, m := range bj.PerLayer {
		got["per_layer "+m.Name] = fmt.Sprintf("%s %s 0", m.Unit, m.Better)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok {
			diffs = append(diffs, k+": missing from BENCHMARK.json")
		} else if g != v {
			diffs = append(diffs, fmt.Sprintf("%s: BENCHMARK.json says %q, the program %q", k, g, v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+": in BENCHMARK.json but not in the program")
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("BENCHMARK.json and the program disagree:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}
