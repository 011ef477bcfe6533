// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table/figure, plus ablations for the §5.2 optimizations. Each reports
// the *virtual-time* measurements of the simulated cluster via
// b.ReportMetric (wall-clock ns/op only measures the simulator itself).
//
// The benchmarks run at scale 0.25 (≈25 MB pod images) to keep iteration
// time moderate; `go run ./cmd/cruzbench` reproduces the full paper-scale
// (≈100 MB) numbers recorded in EXPERIMENTS.md. All shape results are
// scale-invariant.
package cruz_test

import (
	"fmt"
	"testing"

	"cruz"
	"cruz/internal/exp"
)

const benchScale = 0.25

// BenchmarkFig5aCheckpointLatency regenerates Fig. 5(a): total
// coordinated checkpoint latency of the slm benchmark versus node count.
// Paper: ≈1 s, roughly flat from 2 to 8 nodes.
func BenchmarkFig5aCheckpointLatency(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := exp.Fig5([]int{n}, 2, 2*cruz.Second, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].LatencyMeanMs, "vms/ckpt")
				b.ReportMetric(rows[0].LatencyStdMs, "vms/stddev")
				b.ReportMetric(rows[0].PerPodImageMB, "MB/pod")
			}
		})
	}
}

// BenchmarkFig5bCoordinationOverhead regenerates Fig. 5(b): the
// coordination overhead of the checkpoint protocol. Paper: 350–550 µs,
// growing ≈50 µs per node past 4 nodes — negligible against the ≈1 s
// local checkpoint.
func BenchmarkFig5bCoordinationOverhead(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := exp.Fig5([]int{n}, 2, 2*cruz.Second, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].OverheadMeanUs, "vus/ckpt")
			}
		})
	}
}

// BenchmarkFig6StreamRecovery regenerates Fig. 6: the receive-rate
// timeline of a maximum-rate TCP stream across a checkpoint. Paper:
// rate drops to zero, checkpoint completes at ≈120 ms, and TCP
// retransmission restores the full rate ≈100 ms later.
func BenchmarkFig6StreamRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SteadyMbps, "vMbps/steady")
		b.ReportMetric(res.CheckpointMs, "vms/ckpt")
		b.ReportMetric(res.RecoveryMs, "vms/recovery")
		b.ReportMetric(res.RecoveryMs-res.CheckpointMs, "vms/tcp-gap")
	}
}

// BenchmarkRuntimeOverhead regenerates the §6 claim that Cruz's runtime
// virtualization overhead is negligible (paper: <0.5%).
func BenchmarkRuntimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RuntimeOverhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadPct, "%overhead")
	}
}

// BenchmarkMessageComplexity regenerates the §5.2 comparison: Cruz's O(N)
// coordination messages versus the flushing baselines' O(N²) markers —
// and the end-to-end latency of both protocols on the same workload
// (ablation A3).
func BenchmarkMessageComplexity(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := exp.MessageComplexity([]int{n}, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(float64(r.CruzMsgs), "msgs/cruz")
				b.ReportMetric(float64(r.FlushCoordMsgs+r.FlushMarkerMsgs), "msgs/flush")
				b.ReportMetric(r.CruzLatencyMs, "vms/cruz")
				b.ReportMetric(r.FlushLatencyMs, "vms/flush")
			}
		})
	}
}

// BenchmarkFig4Optimization regenerates the Fig. 4 early-continue
// comparison plus the copy-on-write ablation (A2): how long the
// application stays frozen under each protocol variant.
func BenchmarkFig4Optimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig4Compare([]int{4}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range rows[0].Variants {
			switch v.Name {
			case "blocking":
				b.ReportMetric(v.MinBlockedMs, "vms/blocking")
			case "fig4-optimized":
				b.ReportMetric(v.MinBlockedMs, "vms/fig4")
			case "copy-on-write":
				b.ReportMetric(v.MinBlockedMs, "vms/cow")
			}
		}
	}
}

// BenchmarkRestartLatency regenerates the restart measurement the paper
// summarizes as "similar to the results of Figures 5(a) and 5(b)".
func BenchmarkRestartLatency(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := exp.RestartLatency([]int{n}, 1, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].LatencyMeanMs, "vms/restart")
				b.ReportMetric(rows[0].OverheadMeanUs, "vus/overhead")
			}
		})
	}
}

// BenchmarkCheckpoint measures the simulator-side cost (wall-clock time
// and allocations) of a full coordinated checkpoint cycle, with tracing
// off and on. The trace=false case is the regression baseline: enabling
// the tracing subsystem must not change it, and the trace=true case
// bounds the tracer's own overhead.
func BenchmarkCheckpoint(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%v", traced), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := cruz.New(cruz.Config{Nodes: 2, Seed: 11, Trace: traced})
				if err != nil {
					b.Fatal(err)
				}
				_, job := deployRing(b, cl, 2)
				cl.Run(50 * cruz.Millisecond)
				res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cl.Run(20 * cruz.Millisecond)
				b.SetBytes(res.TotalImageBytes)
			}
		})
	}
}

// BenchmarkReplicateImage measures the simulator-side cost of making a
// committed blob image durable on one replica, end to end through the
// agents: offer, want, the data frame through ctl and TCP, adoption into
// the replica's store, done. Two pods of 8 MiB each replicate to their
// ring peer per iteration; only the replication is timed.
func BenchmarkReplicateImage(b *testing.B) {
	cfg := smallSlm(2)
	cfg.GridBytes = 8 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := cruz.New(cruz.Config{Nodes: 2, Seed: 11, Replicas: 1})
		if err != nil {
			b.Fatal(err)
		}
		_, job := deployRingCfg(b, cl, cfg)
		cl.Run(50 * cruz.Millisecond)
		b.StartTimer()
		// Replication starts when the checkpoint commits and runs behind
		// it; the checkpoint itself is BenchmarkCheckpoint's business but
		// cannot be separated from what it triggers.
		res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ok := cl.RunUntil(func() bool {
			return cl.Nodes[0].Agent.Stats.Replications == 1 && cl.Nodes[1].Agent.Stats.Replications == 1
		}, 10*cruz.Second)
		if !ok {
			b.Fatal("replication never completed")
		}
		b.SetBytes(res.TotalImageBytes)
	}
}

// BenchmarkIncrementalCheckpoint is ablation A1: dirty-page incremental
// checkpoints versus full checkpoints on the slm workload.
func BenchmarkIncrementalCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.IncrementalAblation(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ImageMB, "MB/full")
		b.ReportMetric(rows[1].ImageMB, "MB/incremental")
		b.ReportMetric(rows[0].LatencyMs, "vms/full")
		b.ReportMetric(rows[1].LatencyMs, "vms/incremental")
	}
}

// BenchmarkPrecopyDowntime is ablation A7: checkpoint downtime (the
// slowest pod's freeze window) under stop-and-copy versus pre-copy
// rounds with copy-on-write capture, at the workload's native write
// rate.
func BenchmarkPrecopyDowntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.PrecopyAblation(3, 2, benchScale, []float64{1})
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]exp.PrecopyRow{}
		for _, r := range rows {
			byName[r.Variant] = r
		}
		b.ReportMetric(byName["stop-and-copy"].DowntimeMs, "vms/stopcopy")
		b.ReportMetric(byName["precopy"].DowntimeMs, "vms/precopy")
		b.ReportMetric(byName["precopy"].LatencyMs, "vms/precopy-latency")
	}
}
