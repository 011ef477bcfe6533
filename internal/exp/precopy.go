package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/metrics"
)

// PrecopyRow is one (write-rate, variant) cell of the pre-copy ablation.
type PrecopyRow struct {
	Variant string
	// DirtyPagesPerStep is the workload's write rate: grid pages each
	// slm step rewrites. Pre-copy's convergence — and hence its win —
	// depends on it.
	DirtyPagesPerStep int
	// DowntimeMs is the slowest pod's freeze window (SIGSTOP quiesce to
	// resume), averaged over the checkpoints — the metric pre-copy
	// attacks: O(image size) for stop-and-copy, O(residual dirty set)
	// with rounds.
	DowntimeMs float64
	// LatencyMs is the coordinator's commit latency (unlike downtime, it
	// still covers the full image volume).
	LatencyMs float64
	// FrozenMB is the image volume written while pods were stopped: the
	// whole image for stop-and-copy/pipelined, only the residual under
	// pre-copy (rounds stream while the pod runs).
	FrozenMB float64
}

// precopyVariants are the checkpoint strategies the ablation compares.
var precopyVariants = []struct {
	name string
	opts cruz.CheckpointOptions
}{
	{"stop-and-copy", cruz.CheckpointOptions{}},
	{"pipelined", cruz.CheckpointOptions{Pipeline: true}},
	{"precopy", cruz.CheckpointOptions{
		Precopy: cruz.PrecopyConfig{MaxRounds: 3, DirtyThresholdPages: 16, MinRoundGain: 0.2},
	}},
}

// PrecopyAblation measures checkpoint downtime versus application write
// rate for the three save strategies (A7): classic stop-and-copy, the
// pipelined save path, and pre-copy rounds with copy-on-write capture.
// Each (variant, write-rate) cell runs on a fresh n-node slm cluster
// whose DirtyPagesPerStep is scaled by the corresponding multiplier,
// taking ckpts checkpoints 500 ms apart.
func PrecopyAblation(n, ckpts int, scale float64, writeMults []float64) ([]PrecopyRow, error) {
	var rows []PrecopyRow
	for _, wm := range writeMults {
		for _, v := range precopyVariants {
			cfg := slmConfig(n, scale)
			cfg.DirtyPagesPerStep = int(float64(cfg.DirtyPagesPerStep) * wm)
			if cfg.DirtyPagesPerStep < 1 {
				cfg.DirtyPagesPerStep = 1
			}
			r, err := slmRing(cruz.Config{Nodes: n}, cfg)
			if err != nil {
				return nil, err
			}
			var down, lat, mb metrics.Summary
			for k := 0; k < ckpts; k++ {
				res, cerr := r.Cluster.Checkpoint(r.job, v.opts)
				if cerr != nil {
					return nil, fmt.Errorf("exp: precopy %s x%.1f ckpt %d: %w", v.name, wm, k, cerr)
				}
				down.AddDuration(res.MaxBlocked)
				lat.AddDuration(res.Latency)
				mb.Add(float64(res.TotalImageBytes) / (1 << 20))
				r.Cluster.Run(500 * cruz.Millisecond)
			}
			rows = append(rows, PrecopyRow{
				Variant:           v.name,
				DirtyPagesPerStep: cfg.DirtyPagesPerStep,
				DowntimeMs:        down.Mean(),
				LatencyMs:         lat.Mean(),
				FrozenMB:          mb.Mean(),
			})
			if err := r.Check(); err != nil {
				return nil, fmt.Errorf("exp: precopy %s x%.1f: %w", v.name, wm, err)
			}
		}
	}
	return rows, nil
}
