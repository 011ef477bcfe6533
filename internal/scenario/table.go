package scenario

import (
	"cruz"
	"cruz/internal/apps/slm"
)

const ms = cruz.Millisecond

var (
	// ringSLM is a small slm: 8 MiB grids, 80 ms of work a step, shared.
	ringSLM  = slm.Config{TotalComputePerStep: 80 * ms, StepOverhead: 5 * ms, HaloBytes: 32 << 10, GridBytes: 8 << 20, DirtyPagesPerStep: 64, Port: 9200}
	ring     = &Ring{Name: "slm", SLM: ringSLM}
	periodic = Deployment{Config: cruz.Config{Nodes: 4, AutoCompact: 4}, Ring: ring}
	hot      = Deployment{Config: cruz.Config{Nodes: 3}, KV: &KV{Cache: true, Client: 1}}
	live     = cruz.MigrateOptions{Precopy: cruz.PrecopyConfig{MaxRounds: 10, DirtyThresholdPages: 16}}
)

// every2s is five checkpoints of a running ring with opts, 2 s apart.
func every2s(opts cruz.CheckpointOptions) []Step {
	steps := []Step{{Op: Run, For: 500 * ms}}
	for k := 0; k < 5; k++ {
		steps = append(steps, Step{Op: Checkpoint, Ckpt: opts}, Step{Op: Run, For: 2 * cruz.Second})
	}
	return steps
}

// migrateCache migrates the kvstore pod with its hot cache mid-session.
func migrateCache(mig cruz.MigrateOptions) []Step {
	return []Step{{Op: Run, For: 300 * ms}, {Op: Migrate, Pod: "db", Node: 2, Mig: mig}, {Op: Run, For: 500 * ms}}
}

// Table is every scenario.
var Table = []Row{{
	Name: "quickstart", Doc: "an slm ring, a worker per node, is checkpointed, loses every pod and restarts: the smallest end-to-end run",
	Deploy: Deployment{Config: cruz.Config{Nodes: 4}, Ring: ring},
	Steps:  []Step{{Op: Run, For: 500 * ms}, {Op: Checkpoint}, {Op: Run, For: 200 * ms}, {Op: Restart}, {Op: Run, For: 500 * ms}},
	Want:   []string{"checkpoint slm 1: latency 98.720ms", "from checkpoint 1: latency 57.756ms", "slm step 38"},
}, {
	Name: "counter", Doc: "a process counting in memory is checkpointed, crashed, and rolled back",
	Deploy: Deployment{Config: cruz.Config{Nodes: 1}, Counter: true},
	Steps:  []Step{{Op: Run, For: 100 * ms}, {Op: Checkpoint}, {Op: Run, For: 100 * ms}, {Op: Restart}, {Op: Run, For: 100 * ms}},
	Want:   []string{"latency 4.347ms | counter 106\n", "| counter 205\n"},
}, {
	Name: "migrate", Doc: "a kvstore server hops between machines twice, live; its client, in no pod, keeps its TCP connection",
	Deploy: Deployment{Config: cruz.Config{Nodes: 3}, KV: &KV{Client: 1}},
	Steps: []Step{{Op: Run, For: 250 * ms}, {Op: Migrate, Pod: "db", Node: 2, Mig: live}, {Op: Run, For: 250 * ms},
		{Op: Migrate, Pod: "db", Node: 0, Mig: live}, {Op: Run, For: 250 * ms}},
	Want: []string{"downtime 9.955ms", "downtime 9.933ms, total 10.271ms", "kv ops 1510"},
}, {
	Name: "migrate-cache", Doc: "a kvstore server with an 8 MiB hot cache migrates: pre-copy rounds converge, the pod freezes for the residue",
	Deploy: hot, Steps: migrateCache(cruz.MigrateOptions{Precopy: cruz.PrecopyConfig{MaxRounds: 10, DirtyThresholdPages: 32}}),
	Want: []string{"downtime 13.192ms", "rounds [2048 476 120 44 28]"},
}, {
	Name: "migrate-cache-stopcopy", Doc: "migrate-cache by stop-and-copy: the whole image crosses inside the downtime",
	Deploy: hot, Steps: migrateCache(cruz.MigrateOptions{}), Want: []string{"downtime 250.760ms", "rounds [2048]"},
}, {
	Name: "failover", Doc: "an slm ring with replicated checkpoints loses its last node and restarts on the spare, hands off",
	Deploy: Deployment{Config: cruz.Config{Nodes: 3, Spares: 1, Replicas: 1, AutoRecover: true}, Ring: ring},
	Steps:  []Step{{Op: Run, For: 500 * ms}, {Op: Checkpoint}, {Op: Run, For: 300 * ms}, {Op: Fail, Node: -1}, {Op: Run, For: 500 * ms}},
	Want:   []string{"MTTR 457.822ms", "slm-2 to node3 (local copy)"},
}, {
	Name: "failover-ec", Doc: "failover under 4+2 erasure coding: a shard holder dies, then a pod's host, and the image is reconstructed",
	Deploy: Deployment{Config: cruz.Config{Nodes: 10, EC: cruz.ECParams{M: 4, R: 2}, AutoRecover: true}, Ring: &Ring{Name: "slm", Size: 3, SLM: ringSLM}},
	Steps: []Step{{Op: Run, For: 500 * ms}, {Op: Checkpoint, Ckpt: cruz.CheckpointOptions{Dedup: true}},
		{Op: Fail, Node: 4}, {Op: Run, For: 600 * ms}, {Op: Fail, Node: 1}, {Op: Run, For: 500 * ms}},
	Want: []string{"MTTR 500.299ms", "(decode 14.031ms)", "slm-1 to node3 (reconstructed"},
}, {
	Name: "periodic", Doc: "an slm ring checkpoints every 2 s with the Fig. 4 protocol",
	Deploy: periodic, Steps: every2s(cruz.CheckpointOptions{Optimized: true}),
	Want: []string{"checkpoint slm 5: latency 105.713ms, overhead 691.912µs, blocked 86.730ms"},
}, {
	Name: "periodic-dedup", Doc: "periodic, stored content-addressed through the pipelined save path",
	Deploy: periodic, Steps: every2s(cruz.CheckpointOptions{Optimized: true, Dedup: true, Pipeline: true}),
	Want: []string{"checkpoint slm 5: latency 29.939ms", "0.72 MB"},
}, {
	Name: "periodic-precopy", Doc: "periodic with pre-copy rounds: only the residual dirty set is saved frozen",
	Deploy: periodic, Steps: every2s(cruz.CheckpointOptions{Optimized: true, Precopy: cruz.PrecopyConfig{MaxRounds: 3, DirtyThresholdPages: 16, MinRoundGain: 0.2}}),
	Want: []string{"checkpoint slm 20: latency 127.875ms", "blocked 4.178ms"},
}, {
	Name: "batch", Doc: "the batch scheduler runs a 400-step slm job, suspends and resumes it, and recovers it from a crash",
	Deploy: Deployment{Config: cruz.Config{Nodes: 4}, Ring: &Ring{Name: "weather", Every: 2 * cruz.Second, SLM: slm.Config{
		Steps: 400, TotalComputePerStep: 60 * ms, StepOverhead: 5 * ms, HaloBytes: 16 << 10, GridBytes: 4 << 20, DirtyPagesPerStep: 32, Port: 9200}}},
	Steps: []Step{{Op: Run, For: 5 * cruz.Second}, {Op: Suspend}, {Op: Run, For: 3 * cruz.Second}, {Op: Resume},
		{Op: Run, For: 3 * cruz.Second}, {Op: Restart}, {Op: Run, For: 2 * cruz.Second}},
	Want: []string{"weather step 240, 2 ckpts", "restart weather | weather step 340", "weather step 400, 4 ckpts"},
}, {
	Name: "mixed", Doc: "a batch slm job checkpointing every second, a kvstore service and a TCP stream share the network; the kvstore pod migrates, the slm job crashes and recovers",
	Deploy: Deployment{Config: cruz.Config{Nodes: 4, Seed: 2026}, Stream: true, KV: &KV{Client: -1}, Ring: &Ring{Name: "wx", Every: cruz.Second, SLM: slm.Config{
		TotalComputePerStep: 40 * ms, StepOverhead: 4 * ms, HaloBytes: 16 << 10, GridBytes: 2 << 20, DirtyPagesPerStep: 32, Port: 9200}}},
	Steps: []Step{{Op: Run, For: 2 * cruz.Second}, {Op: Migrate, Pod: "db", Node: 1}, {Op: Run, For: 2 * cruz.Second},
		{Op: Restart, Job: "wx"}, {Op: Run, For: 2 * cruz.Second}},
	Want: []string{"wx step 349, 5 ckpts, kv ops 23131, stream 683 MB"},
}}
