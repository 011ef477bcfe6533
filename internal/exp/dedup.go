package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/metrics"
)

// DedupRow is one storage-strategy variant of the dedup ablation.
type DedupRow struct {
	Variant string
	// FirstLatencyMs is the cold checkpoint (every page new to the store).
	FirstLatencyMs float64
	// SteadyLatencyMs is the mean over second-and-later checkpoints of
	// the steady-state workload — where content addressing pays off.
	SteadyLatencyMs float64
	// FirstMB and SteadyMB are the bytes actually written to disk.
	FirstMB  float64
	SteadyMB float64
	// RestoreMs is a coordinated restart from the newest checkpoint.
	RestoreMs float64
}

// dedupVariants defines the ablation: how each storage strategy shapes
// the per-checkpoint options.
var dedupVariants = []struct {
	name string
	opts func(k int) cruz.CheckpointOptions
}{
	{"full", func(int) cruz.CheckpointOptions { return cruz.CheckpointOptions{} }},
	{"incremental", func(k int) cruz.CheckpointOptions {
		return cruz.CheckpointOptions{Incremental: k > 0}
	}},
	{"dedup", func(int) cruz.CheckpointOptions { return cruz.CheckpointOptions{Dedup: true} }},
	{"dedup+pipeline", func(int) cruz.CheckpointOptions {
		return cruz.CheckpointOptions{Dedup: true, Pipeline: true}
	}},
}

// DedupAblation compares the checkpoint storage strategies on the slm
// workload: full monolithic images, incremental chains, content-addressed
// (dedup) full captures, and dedup with the pipelined save path. Each
// variant runs on a fresh n-node cluster taking ckpts checkpoints 500 ms
// apart, then a coordinated restart.
func DedupAblation(n, ckpts int, scale float64) ([]DedupRow, error) {
	var rows []DedupRow
	for _, v := range dedupVariants {
		r, err := slmRing(cruz.Config{Nodes: n}, slmConfig(n, scale))
		if err != nil {
			return nil, err
		}
		var steadyLat, steadyMB metrics.Summary
		row := DedupRow{Variant: v.name}
		for k := 0; k < ckpts; k++ {
			res, cerr := r.Cluster.Checkpoint(r.job, v.opts(k))
			if cerr != nil {
				return nil, fmt.Errorf("exp: dedup ablation %s ckpt %d: %w", v.name, k, cerr)
			}
			mb := float64(res.TotalImageBytes) / (1 << 20)
			if k == 0 {
				row.FirstLatencyMs = res.Latency.Milliseconds()
				row.FirstMB = mb
			} else {
				steadyLat.AddDuration(res.Latency)
				steadyMB.Add(mb)
			}
			r.Cluster.Run(500 * cruz.Millisecond)
		}
		row.SteadyLatencyMs = steadyLat.Mean()
		row.SteadyMB = steadyMB.Mean()
		res, rerr := r.Restart(r.job.Name)
		if rerr != nil {
			return nil, fmt.Errorf("exp: dedup ablation %s restart: %w", v.name, rerr)
		}
		row.RestoreMs = res.Latency.Milliseconds()
		rows = append(rows, row)
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: dedup ablation %s: %w", v.name, err)
		}
	}
	return rows, nil
}

// CompactionRow is one restore scenario of the compaction ablation.
type CompactionRow struct {
	Scenario string
	// Checkpoints taken before the restore (1 full + the rest
	// incremental, all deduplicated).
	Checkpoints int
	RestoreMs   float64
	// Chunks resident in node 0's store at restore time, and the chunk
	// bytes compaction freed.
	StoreChunks int
	FreedMB     float64
}

// CompactionAblation shows what chain compaction buys: restore latency
// from (a) one fresh full deduplicated checkpoint, (b) a chain of 1 full
// + incs incremental deduplicated checkpoints with no GC, and (c) the
// same chain with auto-compaction folding it en route. The paper-level
// claim under test: compaction bounds restore latency after N
// incrementals near the fresh-full cost.
func CompactionAblation(n, incs int, scale float64) ([]CompactionRow, error) {
	scenarios := []struct {
		name        string
		ckpts       int
		autoCompact int
	}{
		{"fresh-full", 1, 0},
		{"chain", 1 + incs, 0},
		{"chain+compact", 1 + incs, 4},
	}
	var rows []CompactionRow
	for _, sc := range scenarios {
		r, err := slmRing(cruz.Config{Nodes: n, AutoCompact: sc.autoCompact}, slmConfig(n, scale))
		if err != nil {
			return nil, err
		}
		for k := 0; k < sc.ckpts; k++ {
			opts := cruz.CheckpointOptions{Dedup: true, Incremental: k > 0}
			if _, cerr := r.Cluster.Checkpoint(r.job, opts); cerr != nil {
				return nil, fmt.Errorf("exp: compaction %s ckpt %d: %w", sc.name, k, cerr)
			}
			r.Cluster.Run(200 * cruz.Millisecond)
		}
		res, rerr := r.Restart(r.job.Name)
		if rerr != nil {
			return nil, fmt.Errorf("exp: compaction %s restart: %w", sc.name, rerr)
		}
		st := r.Cluster.Nodes[0].Store
		rows = append(rows, CompactionRow{
			Scenario:    sc.name,
			Checkpoints: sc.ckpts,
			RestoreMs:   res.Latency.Milliseconds(),
			StoreChunks: st.ChunkCount(),
			FreedMB:     float64(st.Stats().FreedBytes) / (1 << 20),
		})
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: compaction %s: %w", sc.name, err)
		}
	}
	return rows, nil
}
