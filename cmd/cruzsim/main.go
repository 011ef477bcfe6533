// Command cruzsim runs one row of the scenario table (internal/scenario),
// a stamped line per step; -h lists the rows. -nodes and -group resize a
// row whose slm ring spans the cluster. -trace writes the trace as Chrome
// trace-event JSON (Perfetto), -v prints it as a timeline; either adds
// the checkpoint phase breakdown and each op's critical path. Every
// flight-recorder dump (op abort, lease expiry, recovery start) prints,
// and all of it prints for a row that fails too, before its error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"cruz"
	"cruz/internal/scenario"
	"cruz/internal/trace"
	"cruz/internal/trace/critpath"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cruzsim", flag.ExitOnError)
	name := fs.String("scenario", "quickstart", "row of the scenario table")
	var over cruz.Config
	fs.IntVar(&over.Nodes, "nodes", 0, "application nodes (0 = the row's)")
	fs.IntVar(&over.GroupSize, "group", 0, "coordination group size: >1 = two-level tree (try ⌈√nodes⌉)")
	fs.Int64Var(&over.Seed, "seed", 0, "simulation seed (0 = the row's)")
	file := fs.String("trace", "", "write Chrome trace-event JSON to this file")
	verbose := fs.Bool("v", false, "print the trace as a timeline")
	fs.Usage = func() {
		for _, r := range scenario.Table {
			fmt.Fprintf(fs.Output(), "-scenario %-23s %s\n", r.Name, r.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	i := slices.IndexFunc(scenario.Table, func(r scenario.Row) bool { return r.Name == *name })
	if i < 0 {
		return fmt.Errorf("no scenario %q: -h lists them", *name)
	}
	over.Trace = *file != "" || *verbose
	cl, err := scenario.Table[i].Run(over, out)
	if cl == nil {
		return err
	}
	if cl.Trace() != nil {
		err = errors.Join(err, emitTrace(cl.Trace(), out, *file, *verbose))
	}
	if dumps := cl.FlightRecorder().FlightDumps(); len(dumps) > 0 {
		fmt.Fprintf(out, "\nflight recorder: %d dump(s)", len(dumps))
		if n := cl.FlightRecorder().FlightDumpsDropped(); n > 0 {
			fmt.Fprintf(out, " (%d older dumps discarded)", n)
		}
		fmt.Fprintln(out)
		for _, d := range dumps {
			if *verbose {
				fmt.Fprint(out, d.Format())
			} else {
				fmt.Fprintf(out, "  @%.3fms trigger=%s reason=%s window=%.0fms events=%d  (rerun with -v for the full window)\n",
					d.At.Sub(0).Milliseconds(), d.Trigger, d.Reason, d.Window.Milliseconds(), len(d.Events))
			}
		}
	}
	return err
}

// emitTrace renders a traced run: the -v timeline, the -trace file, the
// checkpoint phase breakdown and each op's critical path.
func emitTrace(tr *trace.Tracer, out io.Writer, file string, verbose bool) error {
	events := tr.Events()
	if verbose {
		if err := tr.WriteTimeline(out); err != nil {
			return err
		}
	}
	if file != "" {
		f, err := os.Create(file)
		if err == nil {
			err = errors.Join(tr.WriteChromeTrace(f), f.Close())
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace events to %s (%d dropped)\n", len(events), file, tr.Dropped())
	}
	if rep := trace.PhaseBreakdown(events); len(rep.Rows) > 0 {
		fmt.Fprintf(out, "\n%s", rep.Format())
	}
	sep := "\n"
	for _, t := range critpath.BuildTrees(events) {
		if rep := critpath.Analyze(t); rep != nil {
			fmt.Fprintf(out, "%scritical path: %s\n", sep, rep.Summary())
			sep = ""
		}
	}
	return nil
}
