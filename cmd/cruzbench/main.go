// Command cruzbench regenerates every table and figure of the paper's
// evaluation (§6) from the simulated cluster and prints them as text
// tables. Each experiment runs once, in one internal/exp function; with
// -json FILE every number its tables print is also recorded in FILE, a
// flat JSON object of "experiment/row/cell" keys and plain numbers.
// BENCH_cruz.json is that record for the default run at scale 1, and
// `make bench` re-runs it and fails on any changed digit: every cell is
// virtual time, a byte count or a message count, all deterministic by
// seed. EXPERIMENTS.md records the reference run.
//
// Usage:
//
//	cruzbench [-exp all|fig5|fig6|overhead|msgs|fig4|restart|incremental|dedup|precopy|migrate|recovery|ec|critpath|scale|phases]
//	          [-scale 1.0] [-ckpts 3] [-maxnodes 8] [-traceout FILE]
//	          [-json FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// scale 1.0 reproduces the paper's ≈100 MB pod images (slowest: the full
// run needs GOMEMLIMIT=6GiB on an 8 GB machine); smaller scales preserve
// every shape result and run faster.
//
// -exp phases decomposes coordinated checkpoint latency into
// quiesce/drain/capture/write/commit from a traced cluster; -traceout
// additionally writes its Chrome trace JSON. -exp critpath runs the traced
// kill-and-recover experiment and prints the cross-node span trees, the
// critical-path decomposition of the recovery MTTR and of the replicated
// checkpoint, and the lease-expiry flight-recorder dump. -cpuprofile and
// -memprofile write pprof profiles of the whole run (CPU samples; every
// allocation up to exit), as the flags of the same names do under bench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"cruz"
	"cruz/internal/exp"
	"cruz/internal/trace"
	"cruz/internal/trace/critpath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// experiments lists every experiment in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(*bench) error
}{
	{"fig5", (*bench).fig5},
	{"fig6", (*bench).fig6},
	{"overhead", (*bench).overhead},
	{"msgs", (*bench).msgs},
	{"fig4", (*bench).fig4},
	{"restart", (*bench).restart},
	{"incremental", (*bench).incremental},
	{"dedup", (*bench).dedup},
	{"precopy", (*bench).precopy},
	{"migrate", (*bench).migrate},
	{"recovery", (*bench).recovery},
	{"ec", (*bench).ec},
	{"critpath", (*bench).critpath},
	{"scale", (*bench).scaling},
	{"phases", (*bench).phases},
}

// run is main with its arguments and output passed in, returning the
// exit code so that the deferred profile writers run on every path.
func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("cruzbench", flag.ContinueOnError)
	var (
		which    = fs.String("exp", "all", "experiment: all|fig5|fig6|overhead|msgs|fig4|restart|incremental|dedup|precopy|migrate|recovery|ec|critpath|scale|phases")
		scale    = fs.Float64("scale", 1.0, "workload scale (1.0 = paper's ~100 MB pod images)")
		ckpts    = fs.Int("ckpts", 3, "checkpoints per configuration (fig5, precopy, phases; migrations per variant)")
		maxNodes = fs.Int("maxnodes", 8, "largest node count for sweeps")
		traceOut = fs.String("traceout", "", "write the phases experiment's Chrome trace JSON to this file")
		jsonOut  = fs.String("json", "", "also record every printed cell, key → number, in this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(os.Stderr, "cruzbench: %s: %v\n", what, err)
		return 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail("cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			if err := writeAllocProfile(*memProf); err != nil {
				code = fail("memprofile", err)
			}
		}()
	}

	b := &bench{
		scale: *scale, ckpts: *ckpts, maxNodes: *maxNodes, traceOut: *traceOut,
		w: stdout, cells: map[string]float64{},
	}
	b.put("run/scale", *scale)
	b.put("run/ckpts", *ckpts)
	b.put("run/maxnodes", *maxNodes)
	ran := false
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		ran = true
		if err := e.run(b); err != nil {
			return fail(e.name, err)
		}
	}
	if !ran {
		return fail("exp", fmt.Errorf("no experiment named %q", *which))
	}
	if *jsonOut != "" {
		if err := b.write(*jsonOut); err != nil {
			return fail("json", err)
		}
	}
	return 0
}

// writeAllocProfile writes every allocation so far, as pprof's "allocs"
// profile, to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bench is one cruzbench run: the experiments' parameters, where their
// tables print, and the record of every cell they print.
type bench struct {
	scale    float64
	ckpts    int
	maxNodes int
	traceOut string
	w        io.Writer
	cells    map[string]float64
}

func (b *bench) printf(format string, a ...any) { fmt.Fprintf(b.w, format, a...) }

// row prints one table row and records its cells. cells alternates a
// cell's name and its value; the values fill format in order, and each
// one with a name is recorded under key/name. A label column (a node
// count, a variant) has the empty name: key already says it.
func (b *bench) row(key, format string, cells ...any) {
	args := make([]any, 0, len(cells)/2)
	for i := 0; i < len(cells); i += 2 {
		args = append(args, cells[i+1])
		if name := cells[i].(string); name != "" {
			b.put(key+"/"+name, cells[i+1])
		}
	}
	b.printf(format, args...)
}

// put records one cell. A key recorded twice, or a value that is not a
// number, is a bug in the experiment's table.
func (b *bench) put(key string, v any) {
	if _, dup := b.cells[key]; dup {
		panic("cruzbench: cell recorded twice: " + key)
	}
	switch x := v.(type) {
	case int:
		b.cells[key] = float64(x)
	case float64:
		b.cells[key] = x
	default:
		panic(fmt.Sprintf("cruzbench: cell %s is a %T, not a number", key, v))
	}
}

// write saves the record as indented JSON, one cell per line in key
// order, so that two runs of the same tree compare byte for byte.
func (b *bench) write(path string) error {
	blob, err := json.MarshalIndent(b.cells, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func sweep(maxNodes int) []int {
	var out []int
	for n := 2; n <= maxNodes; n++ {
		out = append(out, n)
	}
	return out
}

func (b *bench) fig5() error {
	b.printf("== Figure 5: coordinated checkpoint of slm ==\n")
	b.printf("   (%d checkpoints per config, 8s interval, scale %.2f)\n\n", b.ckpts, b.scale)
	rows, err := exp.Fig5(sweep(b.maxNodes), b.ckpts, 8*cruz.Second, b.scale)
	if err != nil {
		return err
	}
	b.printf("-- Fig 5(a): total checkpoint latency --\n")
	b.printf("nodes   latency(ms)   stddev   local(ms)   image/pod(MB)\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("fig5/n%d", r.Nodes), "%5d   %11.1f   %6.1f   %9.1f   %13.1f\n",
			"", r.Nodes, "latency_ms", r.LatencyMeanMs, "latency_stddev_ms", r.LatencyStdMs,
			"local_ms", r.LocalMeanMs, "image_per_pod_mb", r.PerPodImageMB)
	}
	b.printf("\n-- Fig 5(b): coordination overhead --\n")
	b.printf("nodes   overhead(µs)   stddev\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("fig5/n%d", r.Nodes), "%5d   %12.1f   %6.1f\n",
			"", r.Nodes, "overhead_us", r.OverheadMeanUs, "overhead_stddev_us", r.OverheadStdUs)
	}
	b.printf("\n")
	return nil
}

func (b *bench) fig6() error {
	b.printf("== Figure 6: TCP stream across a checkpoint ==\n")
	res, err := exp.Fig6()
	if err != nil {
		return err
	}
	b.row("fig6", "steady rate:          %7.0f Mb/s\n", "steady_mbps", res.SteadyMbps)
	b.row("fig6", "checkpoint latency:   %7.1f ms\n", "checkpoint_ms", res.CheckpointMs)
	b.row("fig6", "zero-rate span:       %7.1f ms\n", "zero_ms", res.ZeroMs)
	b.row("fig6", "recovery (90%% rate): %7.1f ms after checkpoint start\n", "recovery_ms", res.RecoveryMs)
	b.row("fig6", "  (TCP retransmission gap after completion: %.1f ms)\n\n", "tcp_gap_ms", res.RecoveryMs-res.CheckpointMs)
	b.printf("%s\n", res.Series.Format())
	return nil
}

func (b *bench) overhead() error {
	b.printf("== §6 runtime virtualization overhead ==\n")
	res, err := exp.RuntimeOverhead()
	if err != nil {
		return err
	}
	b.row("overhead", "native run:  %10.1f ms\n", "native_ms", res.NativeMs)
	b.row("overhead", "in-pod run:  %10.1f ms\n", "pod_ms", res.PodMs)
	b.row("overhead", "overhead:    %10.4f %%  (paper bound: <0.5%%)\n\n", "overhead_pct", res.OverheadPct)
	return nil
}

func (b *bench) msgs() error {
	b.printf("== §5.2 message complexity: Cruz O(N) vs flushing O(N²) ==\n")
	rows, err := exp.MessageComplexity(sweep(b.maxNodes), b.scale)
	if err != nil {
		return err
	}
	b.printf("nodes   cruz msgs   flush coord   flush markers   cruz lat(ms)   flush lat(ms)   drain(ms)\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("msgs/n%d", r.Nodes), "%5d   %9d   %11d   %13d   %12.1f   %13.1f   %9.2f\n",
			"", r.Nodes, "cruz_msgs", r.CruzMsgs, "flush_coord_msgs", r.FlushCoordMsgs, "flush_markers", r.FlushMarkerMsgs,
			"cruz_latency_ms", r.CruzLatencyMs, "flush_latency_ms", r.FlushLatencyMs, "flush_drain_ms", r.FlushDrainMs)
	}
	b.printf("\n")
	return nil
}

func (b *bench) fig4() error {
	b.printf("== Fig 4 / §5.2 optimizations: application-visible freeze ==\n")
	nodes := []int{2, 4}
	if b.maxNodes >= 8 {
		nodes = append(nodes, 8)
	}
	rows, err := exp.Fig4Compare(nodes, b.scale)
	if err != nil {
		return err
	}
	b.printf("   (one straggler pod with a 2x image; freeze = how long pods stay stopped)\n")
	b.printf("nodes   variant           slowest-pod freeze(ms)   fastest-pod freeze(ms)   latency(ms)\n")
	for _, r := range rows {
		for _, v := range r.Variants {
			b.row(fmt.Sprintf("fig4/n%d/%s", r.Nodes, v.Name), "%5d   %-16s  %22.1f   %22.1f   %11.1f\n",
				"", r.Nodes, "", v.Name, "slowest_freeze_ms", v.MaxBlockedMs, "fastest_freeze_ms", v.MinBlockedMs,
				"latency_ms", v.LatencyMs)
		}
	}
	b.printf("\n")
	return nil
}

func (b *bench) restart() error {
	b.printf("== Coordinated restart (paper: 'similar to Fig. 5') ==\n")
	rows, err := exp.RestartLatency(sweep(b.maxNodes), 2, b.scale)
	if err != nil {
		return err
	}
	b.printf("nodes   latency(ms)   stddev   overhead(µs)   local(ms)\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("restart/n%d", r.Nodes), "%5d   %11.1f   %6.1f   %12.1f   %9.1f\n",
			"", r.Nodes, "latency_ms", r.LatencyMeanMs, "latency_stddev_ms", r.LatencyStdMs,
			"overhead_us", r.OverheadMeanUs, "local_ms", r.LocalMeanMs)
	}
	b.printf("\n")
	return nil
}

func (b *bench) incremental() error {
	b.printf("== Ablation: incremental checkpointing ==\n")
	rows, err := exp.IncrementalAblation(b.scale)
	if err != nil {
		return err
	}
	b.printf("kind          image(MB)   latency(ms)\n")
	for _, r := range rows {
		b.row("incremental/"+r.Kind, "%-12s  %9.1f   %11.1f\n",
			"", r.Kind, "image_mb", r.ImageMB, "latency_ms", r.LatencyMs)
	}
	b.printf("\n")
	return nil
}

// dedupCkpts is the dedup ablation's checkpoints per variant: one cold
// checkpoint and four steady-state ones.
const dedupCkpts = 5

func (b *bench) dedup() error {
	b.printf("== Ablation: content-addressed (dedup) checkpoint store ==\n")
	b.printf("   (4 nodes, %d checkpoints per variant, scale %.2f)\n\n", dedupCkpts, b.scale)
	rows, err := exp.DedupAblation(4, dedupCkpts, b.scale)
	if err != nil {
		return err
	}
	b.printf("variant          first(ms)   steady(ms)   first(MB)   steady(MB)   restore(ms)\n")
	for _, r := range rows {
		b.row("dedup/"+r.Variant, "%-15s  %9.1f   %10.1f   %9.1f   %10.2f   %11.1f\n",
			"", r.Variant, "first_ms", r.FirstLatencyMs, "steady_ms", r.SteadyLatencyMs,
			"first_mb", r.FirstMB, "steady_mb", r.SteadyMB, "restore_ms", r.RestoreMs)
	}
	b.printf("\n-- chain compaction: restore after 1 full + 8 incremental dedup checkpoints --\n")
	crows, err := exp.CompactionAblation(4, 8, b.scale)
	if err != nil {
		return err
	}
	b.printf("scenario        ckpts   restore(ms)   store chunks   freed(MB)\n")
	for _, r := range crows {
		b.row("compaction/"+r.Scenario, "%-14s  %5d   %11.1f   %12d   %9.2f\n",
			"", r.Scenario, "ckpts", r.Checkpoints, "restore_ms", r.RestoreMs,
			"store_chunks", r.StoreChunks, "freed_mb", r.FreedMB)
	}
	b.printf("\n")
	return nil
}

// precopy runs ablation A7: checkpoint downtime versus application write
// rate for stop-and-copy, the pipelined save, and pre-copy rounds.
func (b *bench) precopy() error {
	b.printf("== Ablation A7: pre-copy rounds — downtime vs write rate ==\n")
	b.printf("   (4 nodes, %d checkpoints per cell, scale %.2f; downtime = slowest pod's freeze)\n\n", b.ckpts, b.scale)
	rows, err := exp.PrecopyAblation(4, b.ckpts, b.scale, []float64{0.5, 1, 2, 4})
	if err != nil {
		return err
	}
	b.printf("dirty pages/step   variant          downtime(ms)   latency(ms)   frozen-copy(MB)\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("precopy/dirty%d/%s", r.DirtyPagesPerStep, r.Variant), "%16d   %-14s   %12.1f   %11.1f   %15.2f\n",
			"", r.DirtyPagesPerStep, "", r.Variant, "downtime_ms", r.DowntimeMs, "latency_ms", r.LatencyMs,
			"frozen_mb", r.FrozenMB)
	}
	b.printf("\n")
	return nil
}

// migrate runs ablation A10: live pod migration (pre-copy streaming +
// address takeover) against the stop-and-copy baseline.
func (b *bench) migrate() error {
	b.printf("== Ablation A10: live migration — downtime vs stop-and-copy ==\n")
	b.printf("   (4-worker ring + 1 spare node, %d migrations per variant, scale %.2f)\n\n", b.ckpts, b.scale)
	rows, err := exp.MigrateAblation(4, b.ckpts, b.scale)
	if err != nil {
		return err
	}
	b.printf("variant          migrations   downtime(ms)   latency(ms)   rounds   streamed(MB)\n")
	for _, r := range rows {
		b.row("migrate/"+r.Variant, "%-15s  %10d   %12.1f   %11.1f   %6.1f   %12.2f\n",
			"", r.Variant, "migrations", r.Migrations, "downtime_ms", r.DowntimeMs, "latency_ms", r.LatencyMs,
			"rounds", r.Rounds, "streamed_mb", r.StreamedMB)
	}
	b.printf("\n(downtime is the application-visible gap: freeze to resumed-on-destination.\n")
	b.printf(" Live migration streams pre-copy rounds while the pod runs; only the\n")
	b.printf(" residual dirty set transfers under freeze.)\n\n")
	return nil
}

// recovery runs the automatic failure-recovery experiment: kill a node
// of a replicated job and report the MTTR phase breakdown.
func (b *bench) recovery() error {
	b.printf("== Automatic failure recovery (replicated checkpoints) ==\n")
	b.printf("   (4 nodes, kill one mid-run, scale %.2f)\n\n", b.scale)
	rows, err := exp.Recovery(4, b.scale, []exp.RecoveryConfig{
		{Replicas: 1, Spares: 0},
		{Replicas: 1, Spares: 1},
		{Replicas: 3, Spares: 1},
	})
	if err != nil {
		return err
	}
	b.printf("replicas   spares   detect(ms)   place(ms)   transfer(ms)   restart(ms)   MTTR(ms)   moved(MB)   target\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("recovery/k%d_s%d", r.Replicas, r.Spares), "%8d   %6d   %10.1f   %9.2f   %12.1f   %11.1f   %8.1f   %9.2f   %s\n",
			"", r.Replicas, "", r.Spares, "detect_ms", r.DetectMs, "place_ms", r.PlaceMs, "transfer_ms", r.TransferMs,
			"restart_ms", r.RestartMs, "mttr_ms", r.MTTRMs, "moved_mb", r.TransferMB, "", r.Target)
	}
	b.printf("\n")
	return nil
}

// ec prints the A11 erasure-coded storage-tier ablation: the same
// workload under 3-way replication and under 4+2 striping, at paper
// scale (8 nodes) and wide (64 nodes, light workload).
func (b *bench) ec() error {
	b.printf("== Ablation A11: erasure-coded checkpoint storage — 4+2 vs 3-way replication ==\n")
	b.printf("   (slm ring, dedup checkpoints, kill one node mid-run, scale %.2f)\n\n", b.scale)
	rows, err := exp.ECAblation([]int{8, 64}, b.scale)
	if err != nil {
		return err
	}
	b.printf("nodes   scheme    image(MB)   wire(MB)   steady(MB)   overhead   detect(ms)   transfer(ms)   reconstruct(ms)   restart(ms)   MTTR(ms)\n")
	for _, r := range rows {
		b.row(fmt.Sprintf("ec/n%d/%s", r.Nodes, r.Scheme), "%5d   %-7s   %9.1f   %8.1f   %10.2f   %7.2fx   %10.1f   %12.1f   %15.1f   %11.1f   %8.1f\n",
			"", r.Nodes, "", r.Scheme, "image_mb", r.ImageMB, "wire_mb", r.WireMB, "steady_mb", r.SteadyMB,
			"overhead", r.Overhead, "detect_ms", r.DetectMs, "transfer_ms", r.TransferMs,
			"reconstruct_ms", r.ReconstructMs, "restart_ms", r.RestartMs, "mttr_ms", r.MTTRMs)
	}
	b.printf("\n(wire == disk here: the delta protocol only ships chunks the holder is\n")
	b.printf(" missing, so shipped bytes are exactly what lands in peer stores.\n")
	b.printf(" Replication k=3 pays 3x the image per checkpoint; EC 4+2 pays 1.5x and\n")
	b.printf(" still survives any two node losses — at the cost of the reconstruct\n")
	b.printf(" window inside the recovery transfer phase.)\n\n")
	return nil
}

// critpath prints the causal span trees, critical-path tables, and
// lease-expiry flight dump of the traced kill-and-recover run.
func (b *bench) critpath() error {
	b.printf("== Critical-path analysis: traced kill-and-recover ==\n")
	b.printf("   (4 nodes + 1 spare, 1 replica, kill node 1, scale %.2f)\n\n", b.scale)
	cp, err := exp.CritPath(b.scale)
	if err != nil {
		return err
	}
	b.printf("-- recovery span tree (coordinator + agents) --\n")
	b.printf("%s", cp.RecoveryTree.Format())
	b.printf("\n-- recovery critical path --\n")
	b.criticalPath("critpath/recovery", cp.Recovery)
	b.row("critpath/recovery", "(recovery result MTTR %.3f ms; phase sum agrees within 1%%)\n", "mttr_ms", cp.MTTRMs)
	b.printf("\n-- replicated checkpoint critical path --\n")
	b.criticalPath("critpath/checkpoint", cp.Checkpoint)
	b.printf("\n-- flight recorder --\n")
	b.row("critpath/dump", "lease-expiry dump: @%v trigger=%s reason=%s window=%v events=%d\n\n",
		"", cp.Dump.At, "", cp.Dump.Trigger, "", cp.Dump.Reason, "", cp.Dump.Window, "events", len(cp.Dump.Events))
	return nil
}

// criticalPath prints one operation's latency decomposition and records
// its total, lead, phases and path segments, each segment keyed by its
// position and span name.
func (b *bench) criticalPath(key string, r *critpath.Report) {
	b.printf("%s\n", r.Summary())
	b.printf("%s", r.Format())
	b.put(key+"/total_ms", r.TotalMs)
	b.put(key+"/lead_ms", r.LeadMs)
	for i, s := range r.Phases {
		b.put(fmt.Sprintf("%s/phase%02d_%s_ms", key, i, s.Name), s.Ms)
	}
	for i, s := range r.Path {
		b.put(fmt.Sprintf("%s/path%02d_%s_ms", key, i, s.Name), s.Ms)
	}
}

// scaling prints the A9 scaling ablation: flat vs hierarchical (tree)
// coordination at 8, 64, and 256 pods — root message counts and commit
// latency.
func (b *bench) scaling() error {
	b.printf("== Ablation A9: coordination scaling — flat vs two-level tree ==\n")
	b.printf("   (light slm ring, one checkpoint per cell, scale %.2f)\n\n", b.scale)
	rows, err := exp.Scaling(exp.ScalingNodeCounts, b.scale)
	if err != nil {
		return err
	}
	b.printf("nodes   mode   group   root msgs   latency(ms)\n")
	for _, r := range rows {
		mode := "flat"
		if r.Tree() {
			mode = "tree"
		}
		b.row(fmt.Sprintf("scale/n%d/%s", r.Nodes, mode), "%5d   %-4s   %5d   %9d   %11.1f\n",
			"", r.Nodes, "", mode, "group", r.GroupSize, "root_msgs", r.Messages, "latency_ms", r.LatencyMs)
	}
	b.printf("\n(flat root messages grow O(N); tree grows O(N/⌈√N⌉) = O(√N).\n")
	b.printf(" Commit/abort decisions are identical in both modes.)\n\n")
	return nil
}

// phases runs the traced checkpoint experiment and prints the per-phase
// latency decomposition (E1: where does checkpoint latency go?), for
// classic checkpoints and for the content-addressed pipeline.
func (b *bench) phases() error {
	n := max(2, min(4, b.maxNodes))
	b.printf("== Checkpoint phase breakdown (traced) ==\n")
	b.printf("   (%d nodes, %d checkpoints, scale %.2f)\n\n", n, b.ckpts, b.scale)
	classic, dedup, err := exp.Phases(n, b.ckpts, b.scale)
	if err != nil {
		return err
	}
	b.phaseTable("phases/blocking", classic.Report)
	b.printf("\n-- with content-addressed pipeline (dedup+pipeline, incremental, auto-compact) --\n")
	b.phaseTable("phases/dedup", dedup.Report)
	if b.traceOut != "" {
		f, err := os.Create(b.traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, classic.Events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		b.printf("\nwrote %d trace events to %s\n", len(classic.Events), b.traceOut)
	}
	b.printf("\n")
	return nil
}

// phaseTable prints a phase report and records its rows.
func (b *bench) phaseTable(key string, rep *trace.PhaseReport) {
	b.printf("%s", rep.Format())
	for _, r := range rep.Rows {
		p := key + "/" + r.Phase
		b.put(p+"/count", r.Count)
		b.put(p+"/mean_ms", r.MeanMs)
		b.put(p+"/min_ms", r.MinMs)
		b.put(p+"/max_ms", r.MaxMs)
	}
	if rep.OpCount > 0 {
		b.put(key+"/end-to-end/count", rep.OpCount)
		b.put(key+"/end-to-end/mean_ms", rep.OpMeanMs)
	}
}
