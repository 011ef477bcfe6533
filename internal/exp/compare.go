package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/metrics"
)

// MsgRow compares control-message complexity (§5.2): Cruz's O(N) versus
// the flushing baselines' O(N²).
type MsgRow struct {
	Nodes int
	// CruzMsgs counts coordinator<->agent messages for one Cruz
	// checkpoint (4N for the blocking protocol).
	CruzMsgs int
	// FlushCoordMsgs counts the flushing coordinator's messages (also
	// 4N) and FlushMarkerMsgs the all-to-all channel markers (N(N-1)).
	FlushCoordMsgs  int
	FlushMarkerMsgs int
	// Latencies for the same workload and image sizes.
	CruzLatencyMs  float64
	FlushLatencyMs float64
	// FlushDrainMs is the marker-exchange-plus-drain phase Cruz
	// eliminates entirely.
	FlushDrainMs float64
}

// MessageComplexity reproduces the §5.2 comparison on live clusters: the
// same slm workload is checkpointed once with Cruz and once with the
// flushing protocol, counting messages.
func MessageComplexity(nodeCounts []int, scale float64) ([]MsgRow, error) {
	// Average latencies over a few rounds: the pod-quiesce phase (a
	// compute burst may be mid-flight when SIGSTOP lands) adds noise of
	// up to one step time per sample.
	const rounds = 3
	var rows []MsgRow
	for _, n := range nodeCounts {
		// Short compute bursts: the SIGSTOP-quiesce wait (up to one
		// burst) would otherwise add noise larger than the protocol
		// difference being measured.
		cfg := slmConfig(n, scale)
		cfg.TotalComputePerStep = 20 * cruz.Millisecond
		cfg.StepOverhead = 2 * cruz.Millisecond
		r, err := slmRing(cruz.Config{Nodes: n}, cfg)
		if err != nil {
			return nil, err
		}
		fjob, err := r.Cluster.DefineFlushJob("slm-flush", r.names...)
		if err != nil {
			return nil, err
		}
		row := MsgRow{Nodes: n}
		var cruzLat, flushLat, drain metrics.Summary
		for k := 0; k < rounds; k++ {
			cres, cerr := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{})
			if cerr != nil {
				return nil, fmt.Errorf("exp: msgs cruz n=%d: %w", n, cerr)
			}
			r.Cluster.Run(100 * cruz.Millisecond)
			fres, ferr := r.Cluster.FlushCheckpoint(fjob)
			if ferr != nil {
				return nil, fmt.Errorf("exp: msgs flush n=%d: %w", n, ferr)
			}
			r.Cluster.Run(100 * cruz.Millisecond)
			row.CruzMsgs = cres.Messages
			row.FlushCoordMsgs = fres.CoordinatorMessages
			row.FlushMarkerMsgs = fres.MarkerMessages
			cruzLat.AddDuration(cres.Latency)
			flushLat.AddDuration(fres.Latency)
			drain.AddDuration(fres.MaxFlush)
		}
		row.CruzLatencyMs = cruzLat.Mean()
		row.FlushLatencyMs = flushLat.Mean()
		row.FlushDrainMs = drain.Mean()
		rows = append(rows, row)
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: msgs n=%d: %w", n, err)
		}
	}
	return rows, nil
}

// Fig4Variant is one protocol variant's freeze profile.
type Fig4Variant struct {
	Name string
	// MaxBlockedMs is the slowest pod's freeze (bounded below by its own
	// save); MinBlockedMs the fastest pod's — the Fig. 4 optimization's
	// beneficiary, which no longer waits for the slowest save.
	MaxBlockedMs float64
	MinBlockedMs float64
	LatencyMs    float64
}

// Fig4Row compares how long pods stay frozen under each protocol variant.
type Fig4Row struct {
	Nodes    int
	Variants []Fig4Variant
}

// Fig4Compare measures the Fig. 4 early-continue optimization and the
// §5.2 copy-on-write extension against the blocking protocol. The
// workload is deliberately skewed — one worker has twice the grid — since
// the early-continue gain is exactly the save-time skew the other nodes
// no longer wait out.
func Fig4Compare(nodeCounts []int, scale float64) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, n := range nodeCounts {
		r, err := slmRing(cruz.Config{Nodes: n}, slmConfig(n, scale), 2) // rank 0 is the straggler
		if err != nil {
			return nil, err
		}
		row := Fig4Row{Nodes: n}
		for _, v := range []struct {
			name string
			opts cruz.CheckpointOptions
		}{
			{"blocking", cruz.CheckpointOptions{}},
			{"fig4-optimized", cruz.CheckpointOptions{Optimized: true}},
			{"copy-on-write", cruz.CheckpointOptions{COW: true}},
		} {
			res, cerr := r.Cluster.Checkpoint(r.job, v.opts)
			if cerr != nil {
				return nil, fmt.Errorf("exp: fig4 n=%d %s: %w", n, v.name, cerr)
			}
			row.Variants = append(row.Variants, Fig4Variant{
				Name:         v.name,
				MaxBlockedMs: res.MaxBlocked.Milliseconds(),
				MinBlockedMs: res.MinBlocked.Milliseconds(),
				LatencyMs:    res.Latency.Milliseconds(),
			})
			r.Cluster.Run(200 * cruz.Millisecond)
		}
		rows = append(rows, row)
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: fig4 n=%d: %w", n, err)
		}
	}
	return rows, nil
}

// RestartRow reports coordinated restart costs (the paper notes restart
// results are "similar to" Fig. 5 and omits them for space).
type RestartRow struct {
	Nodes          int
	LatencyMeanMs  float64
	LatencyStdMs   float64
	OverheadMeanUs float64
	LocalMeanMs    float64
}

// RestartLatency measures coordinated restart across node counts:
// checkpoint, crash all pods, restart, repeated.
func RestartLatency(nodeCounts []int, repeats int, scale float64) ([]RestartRow, error) {
	var rows []RestartRow
	for _, n := range nodeCounts {
		r, err := slmRing(cruz.Config{Nodes: n}, slmConfig(n, scale))
		if err != nil {
			return nil, err
		}
		var lat, ovh, local metrics.Summary
		for k := 0; k < repeats; k++ {
			if _, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{}); err != nil {
				return nil, fmt.Errorf("exp: restart n=%d ckpt: %w", n, err)
			}
			r.Cluster.Run(100 * cruz.Millisecond)
			res, rerr := r.Restart(r.job.Name)
			if rerr != nil {
				return nil, fmt.Errorf("exp: restart n=%d: %w", n, rerr)
			}
			lat.AddDuration(res.Latency)
			ovh.Add(res.Overhead.Microseconds())
			local.AddDuration(res.MaxLocalRestore)
			r.Cluster.Run(200 * cruz.Millisecond)
		}
		rows = append(rows, RestartRow{
			Nodes:          n,
			LatencyMeanMs:  lat.Mean(),
			LatencyStdMs:   lat.StdDev(),
			OverheadMeanUs: ovh.Mean(),
			LocalMeanMs:    local.Mean(),
		})
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: restart n=%d: %w", n, err)
		}
	}
	return rows, nil
}

// IncrementalRow reports the incremental-checkpoint ablation.
type IncrementalRow struct {
	Kind      string // "full" or "incremental"
	ImageMB   float64
	LatencyMs float64
}

// IncrementalAblation measures full versus incremental checkpoint size
// and latency on the slm workload (§5.2 mentions incremental
// checkpointing as a standard optimization Cruz composes with).
func IncrementalAblation(scale float64) ([]IncrementalRow, error) {
	r, err := slmRing(cruz.Config{Nodes: 2}, slmConfig(2, scale))
	if err != nil {
		return nil, err
	}
	full, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{})
	if err != nil {
		return nil, err
	}
	r.Cluster.Run(500 * cruz.Millisecond)
	inc, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{Incremental: true})
	if err != nil {
		return nil, err
	}
	rows := []IncrementalRow{
		{Kind: "full", ImageMB: float64(full.TotalImageBytes) / (1 << 20), LatencyMs: full.Latency.Milliseconds()},
		{Kind: "incremental", ImageMB: float64(inc.TotalImageBytes) / (1 << 20), LatencyMs: inc.Latency.Milliseconds()},
	}
	if err := r.Check(); err != nil {
		return nil, fmt.Errorf("exp: incremental: %w", err)
	}
	return rows, nil
}
