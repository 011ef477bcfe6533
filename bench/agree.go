package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// agreeFiles compares two -out files of the same seed, A the earlier.
// Virtual-clock metrics and the event count must be equal to the last
// digit. A host-clock metric disagrees when B is worse than A by more
// than the metric's bound; where either file's own quartile spread
// exceeds the bound the verdict is "unresolved", never "agrees".
func agreeFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return agreeReports(a, b, stdout)
}

func agreeReports(a, b *report, stdout io.Writer) int {
	if a.Env != b.Env {
		fmt.Fprintf(stdout, "note: environments differ (%+v vs %+v); host-clock metrics are not comparable\n", a.Env, b.Env)
	}
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tA\tB\tWORSE BY\tBOUND\tVERDICT")
	verdict := func(wl, metric string, sa, sb stat, worse, bound float64, v string) {
		if v != "agrees" {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", wl, metric, sa.Value, sb.Value, 100*worse, 100*bound, v)
		}
		if v == "DIFFERS" {
			bad++
		}
	}
	for _, wl := range names {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		if rb == nil {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tmissing from B\n", wl)
			bad++
			continue
		}
		if ra.Seed != rb.Seed {
			fmt.Fprintf(tw, "%s\tseed\t%d\t%d\t\t\tDIFFERS\n", wl, ra.Seed, rb.Seed)
			bad++
		}
		for _, d := range endToEnd {
			sa, sb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			worse := (sb.Value - sa.Value) / sa.Value
			if d.Better == "higher" {
				worse = -worse
			}
			switch {
			case d.Clock == "v" && sa.Value != sb.Value:
				verdict(wl, d.Name, sa, sb, worse, 0, "DIFFERS")
			case d.Clock == "v":
			case worse > d.Bound:
				verdict(wl, d.Name, sa, sb, worse, d.Bound, "DIFFERS")
			case (sa.Q3-sa.Q1)/sa.Value > d.Bound || (sb.Q3-sb.Q1)/sb.Value > d.Bound:
				verdict(wl, d.Name, sa, sb, worse, d.Bound, "unresolved")
			}
		}
		ea, okA := ra.PerLayer["sim.events_per_pass"]
		eb, okB := rb.PerLayer["sim.events_per_pass"]
		if okA && okB && ea.Value != eb.Value {
			verdict(wl, "sim.events_per_pass", ea, eb, (eb.Value-ea.Value)/ea.Value, 0, "DIFFERS")
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metrics differ by more than their bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end metric agrees within its bound")
	return 0
}
