package main

import (
	"math/rand"

	"cruz"
)

// workload is one lifecycle shape: the cluster, the slm ring on it, and
// the checkpoint/migrate options every pass uses. See README.md for why
// each one exists and which layers it loads.
type workload struct {
	name string
	why  string

	nodes     int
	gridBytes uint64
	step      cruz.Duration // compute time of one slm step
	haloBytes int
	// dirtyPages is how many grid pages each step rewrites.
	dirtyPages int

	replicas    int
	ec          cruz.ECParams
	autoCompact int

	// steady is every checkpoint but the first of a pass; first is the
	// same with Incremental and Precopy cleared (a chain needs a base:
	// README known gap 1).
	steady  cruz.CheckpointOptions
	migrate cruz.MigrateOptions

	ckpts int           // K periodic checkpoints per pass
	gap   cruz.Duration // application time between them
}

var workloads = []workload{
	{
		name:  "bulk4",
		why:   "blocking full-image checkpoints of big grids: the page path (mem, ckpt encode/decode, ctl/tcpip bulk, store) does nearly all the work",
		nodes: 4, gridBytes: 8 << 20, step: 10 * cruz.Millisecond, haloBytes: 16 << 10, dirtyPages: 16,
		replicas: 1,
		ckpts:    4, gap: 400 * cruz.Millisecond,
	},
	{
		name:  "delta4",
		why:   "same cluster and app through incremental+dedup+COW+pre-copy: dirty tracking, hashing, manifests and compaction, small writes instead of big copies",
		nodes: 4, gridBytes: 8 << 20, step: 10 * cruz.Millisecond, haloBytes: 16 << 10, dirtyPages: 16,
		replicas: 1, autoCompact: 4,
		steady: cruz.CheckpointOptions{Incremental: true, Dedup: true, Pipeline: true, COW: true,
			Precopy: cruz.PrecopyConfig{MaxRounds: 4, DirtyThresholdPages: 32}},
		migrate: cruz.MigrateOptions{Dedup: true, Pipeline: true,
			Precopy: cruz.PrecopyConfig{MaxRounds: 10, DirtyThresholdPages: 32}},
		ckpts: 12, gap: 200 * cruz.Millisecond,
	},
	{
		name:  "wide64",
		why:   "64 small pods under flat coordination: sim events, ether frames, small tcp segments, ctl frames, the gob control codec and heartbeats; pages are a rounding error",
		nodes: 64, gridBytes: 256 << 10, step: 5 * cruz.Millisecond, haloBytes: 1 << 10, dirtyPages: 1,
		replicas: 1,
		steady:   cruz.CheckpointOptions{Incremental: true, Dedup: true},
		migrate: cruz.MigrateOptions{Dedup: true,
			Precopy: cruz.PrecopyConfig{MaxRounds: 10, DirtyThresholdPages: 32}},
		ckpts: 8, gap: 100 * cruz.Millisecond,
	},
	{
		name:  "ec8",
		why:   "erasure-coded durability 4+2: RS encode pool, paced shard fan-out, and pull + reconstruct on recovery because no node holds the failed pod whole",
		nodes: 8, gridBytes: 4 << 20, step: 10 * cruz.Millisecond, haloBytes: 16 << 10, dirtyPages: 8,
		ec:     cruz.ECParams{M: 4, R: 2},
		steady: cruz.CheckpointOptions{Dedup: true, Pipeline: true},
		migrate: cruz.MigrateOptions{Dedup: true, Pipeline: true,
			Precopy: cruz.PrecopyConfig{MaxRounds: 10, DirtyThresholdPages: 32}},
		ckpts: 4, gap: 400 * cruz.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// quick shrinks a workload to smoke-test size: same options and op
// sequence, small grids, two checkpoints, at most 16 nodes.
func (w workload) quick() workload {
	w.gridBytes = 1 << 20
	w.dirtyPages = 2
	w.ckpts = 2
	if w.nodes > 16 {
		w.nodes = 16
	}
	return w
}

// first returns the options of a pass's first and last checkpoint: the
// steady options as a full, stop-and-copy image.
func (w *workload) first() cruz.CheckpointOptions {
	o := w.steady
	o.Incremental = false
	o.Precopy = cruz.PrecopyConfig{}
	return o
}

// ops is how many operations one pass issues: K periodic checkpoints,
// restart, node failure, two migrations, final checkpoint.
func (w *workload) ops() int { return w.ckpts + 5 }

// inputs are what -seed generates: for each operation of a pass, how far
// past an application step boundary it is issued. Stopping a pod waits
// for the step in flight, so this phase is part of every latency; the
// harness pins it to the middle of a step (the mean wait) and the seed
// dithers it by ±0.1 % of a step. Nothing else is random: the simulated
// cluster itself always runs cruz.Config.Seed = 1.
type inputs struct {
	phases []cruz.Duration
}

func (w *workload) generate(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	for i := 0; i < w.ops(); i++ {
		in.phases = append(in.phases, cruz.Duration((0.499+0.002*rng.Float64())*float64(w.step)))
	}
	return in
}
