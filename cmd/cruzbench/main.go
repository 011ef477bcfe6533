// Command cruzbench regenerates every table and figure of the paper's
// evaluation (§6) from the simulated cluster, printing them as text
// tables and traces. EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	cruzbench [-exp all|fig5|fig6|overhead|msgs|fig4|restart|incremental|dedup|precopy|migrate|recovery|ec|critpath|scale|phases|none]
//	          [-scale 1.0] [-ckpts 3] [-maxnodes 8] [-trace] [-json]
//	          [-checkjson FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// scale 1.0 reproduces the paper's ≈100 MB pod images (slowest); smaller
// scales preserve every shape result and run faster.
//
// -trace runs the checkpoint-phase breakdown experiment (same as
// -exp phases): a traced cluster decomposes coordinated checkpoint
// latency into quiesce/drain/capture/write/commit. -traceout additionally
// writes its Chrome trace JSON. -exp critpath runs the traced
// kill-and-recover experiment and prints the cross-node span trees, the
// critical-path decomposition of the recovery MTTR and of the replicated
// checkpoint, and the lease-expiry flight-recorder dump. -json writes
// every selected experiment's distribution statistics
// (mean/stddev/percentiles) to BENCH_cruz.json. -cpuprofile and
// -memprofile write pprof profiles of the whole run (CPU samples; every
// allocation up to exit), as the flags of the same names do under bench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"cruz"
	"cruz/internal/exp"
	"cruz/internal/trace"
)

func main() { os.Exit(run()) }

// run is main returning its exit code, so that the deferred profile
// writers run on every path.
func run() (code int) {
	var (
		which     = flag.String("exp", "all", "experiment: all|fig5|fig6|overhead|msgs|fig4|restart|incremental|dedup|precopy|migrate|recovery|ec|critpath|scale|phases|none")
		scale     = flag.Float64("scale", 1.0, "workload scale (1.0 = paper's ~100 MB pod images)")
		ckpts     = flag.Int("ckpts", 3, "checkpoints per configuration (fig5)")
		maxNodes  = flag.Int("maxnodes", 8, "largest node count for sweeps")
		doTrace   = flag.Bool("trace", false, "run the checkpoint-phase breakdown (alias for -exp phases)")
		traceOut  = flag.String("traceout", "", "write the phases experiment's Chrome trace JSON to this file")
		jsonOut   = flag.Bool("json", false, "write distribution statistics to BENCH_cruz.json")
		jsonFile  = flag.String("jsonfile", "BENCH_cruz.json", "output path for -json")
		jsonCkpts = flag.Int("jsonckpts", 5, "checkpoints per configuration for -json distributions")
		checkJSON = flag.String("checkjson", "", "validate an existing -json output file and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()
	fail := func(what string, err error) int {
		fmt.Fprintf(os.Stderr, "cruzbench: %s: %v\n", what, err)
		return 1
	}

	if *checkJSON != "" {
		if err := validateJSON(*checkJSON); err != nil {
			return fail("checkjson", err)
		}
		return 0
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

	for _, e := range []struct {
		name string
		fn   func() error
	}{
		{"fig5", func() error { return fig5(*ckpts, *maxNodes, *scale) }},
		{"fig6", fig6},
		{"overhead", overhead},
		{"msgs", func() error { return msgs(*maxNodes, *scale) }},
		{"fig4", func() error { return fig4(*maxNodes, *scale) }},
		{"restart", func() error { return restart(*maxNodes, *scale) }},
		{"incremental", func() error { return incremental(*scale) }},
		{"dedup", func() error { return dedup(*jsonCkpts, *scale) }},
		{"precopy", func() error { return precopy(*ckpts, *scale) }},
		{"migrate", func() error { return migrate(*ckpts, *scale) }},
		{"recovery", func() error { return recovery(*scale) }},
		{"ec", func() error { return ecRun(*scale) }},
		{"critpath", func() error { return critpathRun(*scale) }},
		{"scale", func() error { return scaling(*scale) }},
	} {
		if *which != "all" && *which != e.name {
			continue
		}
		if err := e.fn(); err != nil {
			return fail(e.name, err)
		}
	}
	if *doTrace || *which == "phases" || *which == "all" {
		if err := phases(*maxNodes, *ckpts, *scale, *traceOut); err != nil {
			return fail("phases", err)
		}
	}
	if *jsonOut {
		if err := writeJSON(*jsonFile, *maxNodes, *jsonCkpts, *scale); err != nil {
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

// phases runs the traced checkpoint experiment and prints the per-phase
// latency decomposition (E1: where does checkpoint latency go?).
func phases(maxNodes, ckpts int, scale float64, traceOut string) error {
	n := 4
	if maxNodes < n {
		n = maxNodes
	}
	if n < 2 {
		n = 2
	}
	fmt.Println("== Checkpoint phase breakdown (traced) ==")
	fmt.Printf("   (%d nodes, %d checkpoints, scale %.2f)\n\n", n, ckpts, scale)
	res, err := exp.Phases(n, ckpts, scale)
	if err != nil {
		return err
	}
	if res.Dropped > 0 {
		return fmt.Errorf("trace ring overflowed (%d events dropped): the phase report is truncated; raise the trace capacity", res.Dropped)
	}
	fmt.Print(res.Report.Format())
	fmt.Println("\n-- with content-addressed pipeline (dedup+pipeline, incremental, auto-compact) --")
	dres, err := exp.PhasesDedup(n, ckpts, scale)
	if err != nil {
		return err
	}
	if dres.Dropped > 0 {
		return fmt.Errorf("trace ring overflowed (%d events dropped): the dedup phase report is truncated; raise the trace capacity", dres.Dropped)
	}
	fmt.Print(dres.Report.Format())
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, res.Events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d trace events to %s\n", len(res.Events), traceOut)
	}
	fmt.Println()
	return nil
}

// writeJSON collects distribution statistics for the headline
// experiments and writes them as indented JSON.
func writeJSON(path string, maxNodes, ckpts int, scale float64) error {
	counts := []int{2}
	if maxNodes >= 4 {
		counts = append(counts, 4)
	}
	if maxNodes >= 8 {
		counts = append(counts, 8)
	}
	rep, err := exp.JSONBench(counts, ckpts, scale)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d experiment distributions to %s\n", len(rep.Experiments), path)
	return nil
}

func sweep(maxNodes int) []int {
	var out []int
	for n := 2; n <= maxNodes; n++ {
		out = append(out, n)
	}
	return out
}

func fig5(ckpts, maxNodes int, scale float64) error {
	fmt.Println("== Figure 5: coordinated checkpoint of slm ==")
	fmt.Printf("   (%d checkpoints per config, 8s interval, scale %.2f)\n\n", ckpts, scale)
	rows, err := exp.Fig5(sweep(maxNodes), ckpts, 8*cruz.Second, scale)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 5(a): total checkpoint latency --")
	fmt.Println("nodes   latency(ms)   stddev   local(ms)   image/pod(MB)")
	for _, r := range rows {
		fmt.Printf("%5d   %11.1f   %6.1f   %9.1f   %13.1f\n",
			r.Nodes, r.LatencyMeanMs, r.LatencyStdMs, r.LocalMeanMs, r.PerPodImageMB)
	}
	fmt.Println("\n-- Fig 5(b): coordination overhead --")
	fmt.Println("nodes   overhead(µs)   stddev")
	for _, r := range rows {
		fmt.Printf("%5d   %12.1f   %6.1f\n", r.Nodes, r.OverheadMeanUs, r.OverheadStdUs)
	}
	fmt.Println()
	return nil
}

func fig6() error {
	fmt.Println("== Figure 6: TCP stream across a checkpoint ==")
	res, err := exp.Fig6()
	if err != nil {
		return err
	}
	fmt.Printf("steady rate:          %7.0f Mb/s\n", res.SteadyMbps)
	fmt.Printf("checkpoint latency:   %7.1f ms\n", res.CheckpointMs)
	fmt.Printf("zero-rate span:       %7.1f ms\n", res.ZeroMs)
	fmt.Printf("recovery (90%% rate): %7.1f ms after checkpoint start\n", res.RecoveryMs)
	fmt.Printf("  (TCP retransmission gap after completion: %.1f ms)\n\n", res.RecoveryMs-res.CheckpointMs)
	fmt.Println(res.Series.Format())
	return nil
}

func overhead() error {
	fmt.Println("== §6 runtime virtualization overhead ==")
	res, err := exp.RuntimeOverhead()
	if err != nil {
		return err
	}
	fmt.Printf("native run:  %10.1f ms\n", res.NativeMs)
	fmt.Printf("in-pod run:  %10.1f ms\n", res.PodMs)
	fmt.Printf("overhead:    %10.4f %%  (paper bound: <0.5%%)\n\n", res.OverheadPct)
	return nil
}

func msgs(maxNodes int, scale float64) error {
	fmt.Println("== §5.2 message complexity: Cruz O(N) vs flushing O(N²) ==")
	rows, err := exp.MessageComplexity(sweep(maxNodes), scale)
	if err != nil {
		return err
	}
	fmt.Println("nodes   cruz msgs   flush coord   flush markers   cruz lat(ms)   flush lat(ms)   drain(ms)")
	for _, r := range rows {
		fmt.Printf("%5d   %9d   %11d   %13d   %12.1f   %13.1f   %9.2f\n",
			r.Nodes, r.CruzMsgs, r.FlushCoordMsgs, r.FlushMarkerMsgs,
			r.CruzLatencyMs, r.FlushLatencyMs, r.FlushDrainMs)
	}
	fmt.Println()
	return nil
}

func fig4(maxNodes int, scale float64) error {
	fmt.Println("== Fig 4 / §5.2 optimizations: application-visible freeze ==")
	nodes := []int{2, 4}
	if maxNodes >= 8 {
		nodes = append(nodes, 8)
	}
	rows, err := exp.Fig4Compare(nodes, scale)
	if err != nil {
		return err
	}
	fmt.Println("   (one straggler pod with a 2x image; freeze = how long pods stay stopped)")
	fmt.Println("nodes   variant           slowest-pod freeze(ms)   fastest-pod freeze(ms)   latency(ms)")
	for _, r := range rows {
		for _, v := range r.Variants {
			fmt.Printf("%5d   %-16s  %22.1f   %22.1f   %11.1f\n",
				r.Nodes, v.Name, v.MaxBlockedMs, v.MinBlockedMs, v.LatencyMs)
		}
	}
	fmt.Println()
	return nil
}

func restart(maxNodes int, scale float64) error {
	fmt.Println("== Coordinated restart (paper: 'similar to Fig. 5') ==")
	rows, err := exp.RestartLatency(sweep(maxNodes), 2, scale)
	if err != nil {
		return err
	}
	fmt.Println("nodes   latency(ms)   stddev   overhead(µs)   local(ms)")
	for _, r := range rows {
		fmt.Printf("%5d   %11.1f   %6.1f   %12.1f   %9.1f\n",
			r.Nodes, r.LatencyMeanMs, r.LatencyStdMs, r.OverheadMeanUs, r.LocalMeanMs)
	}
	fmt.Println()
	return nil
}

func incremental(scale float64) error {
	fmt.Println("== Ablation: incremental checkpointing ==")
	rows, err := exp.IncrementalAblation(scale)
	if err != nil {
		return err
	}
	fmt.Println("kind          image(MB)   latency(ms)")
	for _, r := range rows {
		fmt.Printf("%-12s  %9.1f   %11.1f\n", r.Kind, r.ImageMB, r.LatencyMs)
	}
	fmt.Println()
	return nil
}

func dedup(ckpts int, scale float64) error {
	fmt.Println("== Ablation: content-addressed (dedup) checkpoint store ==")
	fmt.Printf("   (4 nodes, %d checkpoints per variant, scale %.2f)\n\n", ckpts, scale)
	rows, err := exp.DedupAblation(4, ckpts, scale)
	if err != nil {
		return err
	}
	fmt.Println("variant          first(ms)   steady(ms)   first(MB)   steady(MB)   restore(ms)")
	for _, r := range rows {
		fmt.Printf("%-15s  %9.1f   %10.1f   %9.1f   %10.2f   %11.1f\n",
			r.Variant, r.FirstLatencyMs, r.SteadyLatencyMs, r.FirstMB, r.SteadyMB, r.RestoreMs)
	}
	fmt.Println("\n-- chain compaction: restore after 1 full + 8 incremental dedup checkpoints --")
	crows, err := exp.CompactionAblation(4, 8, scale)
	if err != nil {
		return err
	}
	fmt.Println("scenario        ckpts   restore(ms)   store chunks   freed(MB)")
	for _, r := range crows {
		fmt.Printf("%-14s  %5d   %11.1f   %12d   %9.2f\n",
			r.Scenario, r.Checkpoints, r.RestoreMs, r.StoreChunks, r.FreedMB)
	}
	fmt.Println()
	return nil
}

// precopy runs ablation A7: checkpoint downtime versus application write
// rate for stop-and-copy, the pipelined save, and pre-copy rounds.
func precopy(ckpts int, scale float64) error {
	fmt.Println("== Ablation A7: pre-copy rounds — downtime vs write rate ==")
	fmt.Printf("   (4 nodes, %d checkpoints per cell, scale %.2f; downtime = slowest pod's freeze)\n\n", ckpts, scale)
	rows, err := exp.PrecopyAblation(4, ckpts, scale, []float64{0.5, 1, 2, 4})
	if err != nil {
		return err
	}
	fmt.Println("dirty pages/step   variant          downtime(ms)   latency(ms)   frozen-copy(MB)")
	for _, r := range rows {
		fmt.Printf("%16d   %-14s   %12.1f   %11.1f   %15.2f\n",
			r.DirtyPagesPerStep, r.Variant, r.DowntimeMs, r.LatencyMs, r.FrozenMB)
	}
	fmt.Println()
	return nil
}

// migrate runs ablation A10: live pod migration (pre-copy streaming +
// address takeover) against the stop-and-copy baseline.
func migrate(migs int, scale float64) error {
	fmt.Println("== Ablation A10: live migration — downtime vs stop-and-copy ==")
	fmt.Printf("   (4-worker ring + 1 spare node, %d migrations per variant, scale %.2f)\n\n", migs, scale)
	rows, err := exp.MigrateAblation(4, migs, scale)
	if err != nil {
		return err
	}
	fmt.Println("variant          migrations   downtime(ms)   latency(ms)   rounds   streamed(MB)")
	for _, r := range rows {
		fmt.Printf("%-15s  %10d   %12.1f   %11.1f   %6.1f   %12.2f\n",
			r.Variant, r.Migrations, r.DowntimeMs, r.LatencyMs, r.Rounds, r.StreamedMB)
	}
	fmt.Println("\n(downtime is the application-visible gap: freeze to resumed-on-destination.")
	fmt.Println(" Live migration streams pre-copy rounds while the pod runs; only the")
	fmt.Println(" residual dirty set transfers under freeze.)")
	fmt.Println()
	return nil
}

// recovery runs the automatic failure-recovery experiment: kill a node
// of a replicated job and report the MTTR phase breakdown.
func recovery(scale float64) error {
	fmt.Println("== Automatic failure recovery (replicated checkpoints) ==")
	fmt.Printf("   (4 nodes, kill one mid-run, scale %.2f)\n\n", scale)
	rows, err := exp.Recovery(4, scale, []exp.RecoveryConfig{
		{Replicas: 1, Spares: 0},
		{Replicas: 1, Spares: 1},
		{Replicas: 3, Spares: 1},
	})
	if err != nil {
		return err
	}
	fmt.Println("replicas   spares   detect(ms)   place(ms)   transfer(ms)   restart(ms)   MTTR(ms)   moved(MB)   target")
	for _, r := range rows {
		fmt.Printf("%8d   %6d   %10.1f   %9.2f   %12.1f   %11.1f   %8.1f   %9.2f   %s\n",
			r.Replicas, r.Spares, r.DetectMs, r.PlaceMs, r.TransferMs, r.RestartMs, r.MTTRMs, r.TransferMB, r.Target)
	}
	fmt.Println()
	return nil
}

// ecRun prints the A11 erasure-coded storage-tier ablation: the same
// workload under 3-way replication and under 4+2 striping, at paper
// scale (8 nodes) and wide (64 nodes, light workload).
func ecRun(scale float64) error {
	fmt.Println("== Ablation A11: erasure-coded checkpoint storage — 4+2 vs 3-way replication ==")
	fmt.Printf("   (slm ring, dedup checkpoints, kill one node mid-run, scale %.2f)\n\n", scale)
	rows, err := exp.ECAblation([]int{8, 64}, scale)
	if err != nil {
		return err
	}
	fmt.Println("nodes   scheme    image(MB)   wire(MB)   steady(MB)   overhead   detect(ms)   transfer(ms)   reconstruct(ms)   restart(ms)   MTTR(ms)")
	for _, r := range rows {
		fmt.Printf("%5d   %-7s   %9.1f   %8.1f   %10.2f   %7.2fx   %10.1f   %12.1f   %15.1f   %11.1f   %8.1f\n",
			r.Nodes, r.Scheme, r.ImageMB, r.WireMB, r.SteadyMB, r.Overhead,
			r.DetectMs, r.TransferMs, r.ReconstructMs, r.RestartMs, r.MTTRMs)
	}
	fmt.Println("\n(wire == disk here: the delta protocol only ships chunks the holder is")
	fmt.Println(" missing, so shipped bytes are exactly what lands in peer stores.")
	fmt.Println(" Replication k=3 pays 3x the image per checkpoint; EC 4+2 pays 1.5x and")
	fmt.Println(" still survives any two node losses — at the cost of the reconstruct")
	fmt.Println(" window inside the recovery transfer phase.)")
	fmt.Println()
	return nil
}

// critpathRun prints the causal span trees, critical-path tables, and
// lease-expiry flight dump of the traced kill-and-recover run.
func critpathRun(scale float64) error {
	fmt.Println("== Critical-path analysis: traced kill-and-recover ==")
	fmt.Printf("   (4 nodes + 1 spare, 1 replica, kill node 1, scale %.2f)\n\n", scale)
	cp, err := exp.CritPath(scale)
	if err != nil {
		return err
	}
	fmt.Println("-- recovery span tree (coordinator + agents) --")
	fmt.Print(cp.RecoveryTree.Format())
	fmt.Println("\n-- recovery critical path --")
	fmt.Println(cp.Recovery.Summary())
	fmt.Print(cp.Recovery.Format())
	fmt.Printf("(recovery result MTTR %.3f ms; phase sum agrees within 1%%)\n", cp.MTTRMs)
	fmt.Println("\n-- replicated checkpoint critical path --")
	fmt.Println(cp.Checkpoint.Summary())
	fmt.Print(cp.Checkpoint.Format())
	fmt.Println("\n-- flight recorder --")
	fmt.Printf("lease-expiry dump: @%v trigger=%s reason=%s window=%v events=%d\n\n",
		cp.Dump.At, cp.Dump.Trigger, cp.Dump.Reason, cp.Dump.Window, len(cp.Dump.Events))
	return nil
}

// scaling prints the A9 scaling ablation: flat vs hierarchical (tree)
// coordination at 8, 64, and 256 pods — root message counts, commit
// latency, and the engine's wall-clock event throughput.
func scaling(scale float64) error {
	fmt.Println("== Ablation A9: coordination scaling — flat vs two-level tree ==")
	fmt.Printf("   (light slm ring, one checkpoint per cell, scale %.2f)\n\n", scale)
	rows, err := exp.Scaling(exp.ScalingNodeCounts, scale)
	if err != nil {
		return err
	}
	fmt.Println("nodes   mode   group   root msgs   latency(ms)   kevents/s   wall(ms)")
	for _, r := range rows {
		mode := "flat"
		if r.Tree() {
			mode = "tree"
		}
		fmt.Printf("%5d   %-4s   %5d   %9d   %11.1f   %9.0f   %8.0f\n",
			r.Nodes, mode, r.GroupSize, r.Messages, r.LatencyMs, r.EventsPerSec/1000, r.WallMs)
	}
	fmt.Println("\n(flat root messages grow O(N); tree grows O(N/⌈√N⌉) = O(√N).")
	fmt.Println(" Commit/abort decisions are identical in both modes.)")
	fmt.Println()
	return nil
}

// validateJSON parses a -json output file and verifies it is a
// well-formed benchmark report (make bench's gate), including the
// critical-path keys the critpath experiment contributes.
func validateJSON(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep exp.BenchReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: invalid JSON: %w", path, err)
	}
	if len(rep.Experiments) == 0 {
		return fmt.Errorf("%s: no experiment distributions", path)
	}
	for _, key := range []string{
		"critpath_recovery_n4/total_ms",
		"critpath_recovery_n4/detect_ms",
		"critpath_recovery_n4/restart_ms",
		"critpath_checkpoint_n4/total_ms",
		"migrate_n4/downtime_ms",
		"migrate_n4/rounds",
		"migrate_n4/bytes_streamed",
		"migrate_n4/stopcopy_downtime_ms",
		"ec_n8_repl_k3/wire_mb",
		"ec_n8_repl_k3/mttr_ms",
		"ec_n8_ec_4p2/wire_mb",
		"ec_n8_ec_4p2/steady_mb",
		"ec_n8_ec_4p2/reconstruct_ms",
		"ec_n8_ec_4p2/mttr_ms",
		"scale_n256_flat/coord_messages",
		"scale_n256_tree/coord_messages",
		"engine_n256_tree/kevents_per_wall_sec",
	} {
		if _, ok := rep.Experiments[key]; !ok {
			return fmt.Errorf("%s: missing required key %s", path, key)
		}
	}
	fmt.Printf("%s: ok (%d experiment distributions, scale %.2f)\n",
		path, len(rep.Experiments), rep.Scale)
	return nil
}
