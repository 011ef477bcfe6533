package main

import (
	"fmt"
	"math"

	"cruz"
	"cruz/internal/coord"
	"cruz/internal/trace"
	"cruz/internal/trace/critpath"
)

// perLayer lists the metrics a traced run adds, by the package that does
// the work. They carry no bound: they exist so that a change in an
// end-to-end number can be traced to the layer that caused it.
var perLayer = []metricDef{
	{Name: "sim.events_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "host_s_per_pass @ wide64"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Clock: "h", Source: "c", Moves: "host_s_per_pass @ wide64"},

	{Name: "ether.frames_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "host_s_per_pass @ wide64"},
	{Name: "ether.wire_mb_per_pass", Unit: "MiB", Better: "lower", Clock: "v", Source: "c", Moves: "host_s_per_pass @ bulk4"},
	{Name: "ether.flooded_frames", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "migrate_downtime_vms @ all"},
	{Name: "ether.dropped_frames", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "recover_mttr_vms @ all"},

	{Name: "tcpip.segments_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "host_s_per_pass @ wide64"},
	{Name: "tcpip.filter_drops_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "app_steps_per_vs @ bulk4"},
	{Name: "tcpip.segpool_hit_ratio", Unit: "ratio", Better: "higher", Clock: "v", Source: "c", Moves: "host_allocs_k_per_pass @ wide64"},
	{Name: "tcpip.drain_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_latency_vms @ bulk4"},

	{Name: "kernel.disk_read_mb_per_pass", Unit: "MiB", Better: "lower", Clock: "v", Source: "c", Moves: "restart_latency_vms, recover_mttr_vms @ bulk4"},
	{Name: "kernel.disk_ops_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "ckpt_latency_vms @ delta4"},
	{Name: "kernel.cow_faults_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "app_steps_per_vs @ delta4"},
	{Name: "kernel.syscalls_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "host_s_per_pass @ wide64"},
	{Name: "kernel.write_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_latency_vms @ bulk4"},

	{Name: "zap.quiesce_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_latency_vms @ all"},

	{Name: "mem.dirty_pages_per_ckpt", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "disk_mb_per_pass @ delta4"},
	{Name: "mem.hash_computes_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "ckpt_latency_vms @ delta4, ec8"},
	{Name: "mem.hash_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_latency_vms @ delta4, ec8"},
	{Name: "mem.hash_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ delta4, ec8"},
	{Name: "mem.snapshot_host_us", Unit: "us", Better: "lower", Clock: "h", Source: "r", Moves: "host_s_per_pass @ delta4"},

	{Name: "ckpt.capture_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ bulk4"},
	{Name: "ckpt.encode_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ bulk4"},
	{Name: "ckpt.decode_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ bulk4"},
	{Name: "ckpt.restore_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ bulk4"},
	{Name: "ckpt.page_alloc_ratio", Unit: "ratio", Better: "lower", Clock: "h", Source: "r", Moves: "host_alloc_mb_per_pass, host_live_heap_mb @ bulk4"},
	{Name: "ckpt.plan_dedup_host_us_per_page", Unit: "us", Better: "lower", Clock: "h", Source: "r", Moves: "host_s_per_pass @ delta4"},
	{Name: "ckpt.dedup_hit_ratio", Unit: "ratio", Better: "higher", Clock: "v", Source: "c", Moves: "disk_mb_per_pass @ delta4"},
	{Name: "ckpt.new_chunk_mb_per_pass", Unit: "MiB", Better: "lower", Clock: "v", Source: "c", Moves: "disk_mb_per_pass @ delta4"},
	{Name: "ckpt.compactions_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "host_live_heap_mb @ delta4"},
	{Name: "ckpt.freed_mb_per_pass", Unit: "MiB", Better: "higher", Clock: "v", Source: "c", Moves: "host_live_heap_mb @ delta4"},
	{Name: "ckpt.capture_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_freeze_vms @ bulk4"},
	{Name: "ckpt.dedup_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_latency_vms @ delta4"},
	{Name: "ckpt.compact_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "disk_mb_per_pass @ delta4"},
	{Name: "ckpt.ec_encode_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ ec8"},
	{Name: "ckpt.ec_reconstruct_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass, recover_mttr_vms @ ec8"},

	{Name: "ctl.small_frame_host_us", Unit: "us", Better: "lower", Clock: "h", Source: "r", Moves: "host_s_per_pass @ wide64"},
	{Name: "ctl.bulk_host_mb_s", Unit: "MiB/s", Better: "higher", Clock: "h", Source: "r", Moves: "host_s_per_pass @ bulk4"},
	{Name: "ctl.bulk_alloc_ratio", Unit: "ratio", Better: "lower", Clock: "h", Source: "r", Moves: "host_alloc_mb_per_pass @ bulk4"},
	{Name: "ctl.framepool_hit_ratio", Unit: "ratio", Better: "higher", Clock: "h", Source: "r", Moves: "host_allocs_k_per_pass @ wide64"},

	{Name: "core.coord_msgs_per_ckpt", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "coord_overhead_vus @ wide64"},
	{Name: "core.ctl_bytes_per_msg", Unit: "B", Better: "lower", Clock: "v", Source: "c", Moves: "coord_overhead_vus, net_mb_per_pass @ wide64"},
	{Name: "core.heartbeat_kb_per_vs", Unit: "KiB/vs", Better: "lower", Clock: "v", Source: "c", Moves: "net_mb_per_pass @ wide64"},
	{Name: "core.repl_mb_per_pass", Unit: "MiB", Better: "lower", Clock: "v", Source: "c", Moves: "net_mb_per_pass @ bulk4"},
	{Name: "core.ec_shard_mb_per_pass", Unit: "MiB", Better: "lower", Clock: "v", Source: "c", Moves: "net_mb_per_pass @ ec8"},
	{Name: "core.repl_failures", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "failed ops @ all"},
	{Name: "core.aborts", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "failed ops @ all"},
	{Name: "core.commit_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "p", Moves: "ckpt_freeze_vms @ bulk4"},
	{Name: "core.migrate_rounds", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "migrate_downtime_vms @ delta4"},
	{Name: "core.migrate_streamed_mb", Unit: "MiB", Better: "lower", Clock: "v", Source: "c", Moves: "net_mb_per_pass @ delta4"},
	{Name: "core.migrate_latency_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "migrate_downtime_vms @ delta4"},
	{Name: "core.recover_detect_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "recover_mttr_vms @ all"},
	{Name: "core.recover_transfer_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "recover_mttr_vms @ bulk4"},
	{Name: "core.recover_restart_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "recover_mttr_vms @ bulk4"},
	{Name: "core.recover_reconstruct_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "recover_mttr_vms @ ec8"},
	{Name: "core.ckpt_latency_max_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "ckpt_latency_vms @ all"},

	{Name: "coord.tree_root_msgs_per_ckpt", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "coord_overhead_vus @ wide64"},
	{Name: "coord.tree_ckpt_latency_vms", Unit: "vms", Better: "lower", Clock: "v", Source: "c", Moves: "ckpt_latency_vms @ wide64"},

	{Name: "cruz.checkpoint_host_ms", Unit: "ms", Better: "lower", Clock: "h", Source: "s", Moves: "host_s_per_pass @ all"},
	{Name: "cruz.restart_host_ms", Unit: "ms", Better: "lower", Clock: "h", Source: "s", Moves: "host_s_per_pass @ all"},
	{Name: "cruz.recover_host_ms", Unit: "ms", Better: "lower", Clock: "h", Source: "s", Moves: "host_s_per_pass @ all"},
	{Name: "cruz.migrate_host_ms", Unit: "ms", Better: "lower", Clock: "h", Source: "s", Moves: "host_s_per_pass @ all"},
	{Name: "cruz.idle_host_ms_per_vs", Unit: "ms/vs", Better: "lower", Clock: "h", Source: "s", Moves: "host_s_per_pass @ all"},

	{Name: "trace.host_overhead_ratio", Unit: "ratio", Better: "lower", Clock: "h", Source: "s", Moves: "observer budget"},
	{Name: "trace.events_per_pass", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "observer budget"},
	{Name: "trace.dropped_events", Unit: "count", Better: "lower", Clock: "v", Source: "c", Moves: "observer budget"},
}

// traceCapacity holds a whole traced pass (the widest workload emits
// about 25k events); a pass that overflows it fails the run.
const traceCapacity = 1 << 17

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the [c] metrics from one pass. Counters are
// virtual-clock quantities: they are the same in every pass of a run.
func counterMetrics(r *passResult) map[string]float64 {
	c := r.counters
	f := func(i int) float64 { return float64(c[i]) }
	m := map[string]float64{
		eventsKey: f(cEvents),

		"ether.frames_per_pass":  f(cFrames),
		"ether.wire_mb_per_pass": f(cWireBytes) / mib,
		"ether.flooded_frames":   f(cFlooded),
		"ether.dropped_frames":   f(cDropped),

		"tcpip.segments_per_pass":     f(cSegments),
		"tcpip.filter_drops_per_pass": f(cFilterDrops),
		"tcpip.segpool_hit_ratio":     ratio(f(cSegHits), f(cSegHits)+f(cSegMisses)),

		"kernel.disk_read_mb_per_pass": f(cDiskRead) / mib,
		"kernel.disk_ops_per_pass":     f(cDiskOps),
		"kernel.cow_faults_per_pass":   f(cCowFaults),
		"kernel.syscalls_per_pass":     f(cSyscalls),

		"ckpt.dedup_hit_ratio":       ratio(f(cDupChunks), f(cDupChunks)+f(cNewChunks)),
		"ckpt.new_chunk_mb_per_pass": f(cNewChunkBytes) / mib,
		"ckpt.compactions_per_pass":  f(cCompactions),
		"ckpt.freed_mb_per_pass":     f(cFreedBytes) / mib,

		"core.repl_mb_per_pass":     f(cReplBytes) / mib,
		"core.ec_shard_mb_per_pass": f(cECShardBytes) / mib,
		"core.repl_failures":        f(cReplFailures),
		"core.aborts":               f(cAborts),

		"core.recover_detect_vms":      r.recovery.Detect.Milliseconds(),
		"core.recover_transfer_vms":    r.recovery.Transfer.Milliseconds(),
		"core.recover_restart_vms":     r.recovery.Restart.Milliseconds(),
		"core.recover_reconstruct_vms": r.recovery.Reconstruct.Milliseconds(),
	}

	// Steady checkpoints only for the dirty set: the first and last are
	// full images whatever was dirty.
	var dirty, hashes, msgs, latMax float64
	for k, ck := range r.ckpts {
		if k > 0 && k < len(r.ckpts)-1 {
			dirty += float64(r.dirty[k])
		}
		hashes += float64(r.hashes[k])
		msgs += float64(ck.Messages)
		latMax = math.Max(latMax, ck.Latency.Milliseconds())
	}
	pods := float64(len(r.ckpts[0].PerPod))
	m["mem.dirty_pages_per_ckpt"] = ratio(dirty, pods*float64(len(r.ckpts)-2))
	m["mem.hash_computes_per_pass"] = hashes
	m["core.coord_msgs_per_ckpt"] = msgs / float64(len(r.ckpts))
	m["core.ckpt_latency_max_vms"] = latMax

	// What crosses the coordinator's NIC: during checkpoints it is the
	// protocol's control frames; between operations it is heartbeats and
	// the agents' durability reports.
	var ckptBytes, idleBytes, idleVirt float64
	for _, s := range r.spans {
		switch {
		case s.Kind == spCheckpoint:
			ckptBytes += float64(s.SvcBytes)
		case idleSpan(s.Kind):
			idleBytes += float64(s.SvcBytes)
			idleVirt += s.VEnd.Sub(s.VStart).Seconds()
		}
	}
	m["core.ctl_bytes_per_msg"] = ratio(ckptBytes, msgs)
	m["core.heartbeat_kb_per_vs"] = ratio(idleBytes/1024, idleVirt)

	var rounds, streamed, lat float64
	for _, mg := range r.migrations {
		rounds += float64(mg.Rounds)
		streamed += float64(mg.BytesStreamed)
		lat += mg.Latency.Milliseconds()
	}
	n := float64(len(r.migrations))
	m["core.migrate_rounds"] = rounds / n
	m["core.migrate_streamed_mb"] = streamed / mib
	m["core.migrate_latency_vms"] = lat / n
	return m
}

// spanMetrics derives the facade self-times from one pass's harness
// spans: host milliseconds inside each kind of facade call, and the
// host cost of a virtual second in which no call is in flight.
func spanMetrics(r *passResult) map[string]float64 {
	host := map[string]float64{}
	var idleHost, idleVirt float64
	for _, s := range r.spans {
		ms := float64(s.End-s.Start) / 1e6
		if idleSpan(s.Kind) {
			idleHost += ms
			idleVirt += s.VEnd.Sub(s.VStart).Seconds()
		} else {
			host[s.Kind] += ms
		}
	}
	return map[string]float64{
		"cruz.checkpoint_host_ms":  host[spCheckpoint],
		"cruz.restart_host_ms":     host[spRestart],
		"cruz.recover_host_ms":     host[spRecover],
		"cruz.migrate_host_ms":     host[spMigrate],
		"cruz.idle_host_ms_per_vs": ratio(idleHost, idleVirt),
	}
}

// spanCoverage is the share of a pass's measured host time that lies
// inside some harness span.
func spanCoverage(r *passResult) float64 {
	var covered float64
	for _, s := range r.spans {
		covered += float64(s.End - s.Start)
	}
	return covered / float64(r.host)
}

// phaseMetric maps a checkpoint phase the agents trace to the metric of
// the layer that phase waits on.
var phaseMetric = map[string]string{
	"quiesce": "zap.quiesce_vms", "residual-stop": "zap.quiesce_vms",
	"drain": "tcpip.drain_vms", "capture": "ckpt.capture_vms",
	"hash": "mem.hash_vms", "dedup": "ckpt.dedup_vms",
	"write": "kernel.write_vms", "commit": "core.commit_vms",
	"compact": "ckpt.compact_vms",
}

// phaseMetrics derives the [p] metrics from the traced pass: the mean
// virtual duration of each checkpoint phase the agents record, by the
// layer the phase waits on. It also checks that the tracer kept every
// event, closed every span, and that the critical path of each
// checkpoint tiles the latency the coordinator reported for it.
func phaseMetrics(p *pass) (map[string]float64, error) {
	tr := p.cl.Trace()
	events := tr.Events()
	m := map[string]float64{
		"trace.events_per_pass": float64(tr.Len()) + float64(tr.Dropped()),
		"trace.dropped_events":  float64(tr.Dropped()),
	}
	if tr.Dropped() > 0 {
		return m, fmt.Errorf("trace ring dropped %d events: raise traceCapacity", tr.Dropped())
	}

	total, count := map[string]float64{}, map[string]float64{}
	for _, row := range trace.PhaseBreakdown(events).Rows {
		total[phaseMetric[row.Phase]] += row.TotalMs
		count[phaseMetric[row.Phase]] += float64(row.Count)
	}
	for _, d := range perLayer {
		if d.Source == "p" {
			m[d.Name] = ratio(total[d.Name], count[d.Name])
		}
	}

	k := 0
	for _, tree := range critpath.BuildTrees(events) {
		if tree.Root == nil || tree.Root.Name != "checkpoint" {
			continue
		}
		rep := critpath.Analyze(tree)
		if rep == nil {
			return m, fmt.Errorf("checkpoint op %d: root span never ended", tree.Op)
		}
		if k >= len(p.res.ckpts) {
			return m, fmt.Errorf("trace holds more checkpoint ops than the harness issued (%d)", len(p.res.ckpts))
		}
		var path float64
		for _, seg := range rep.Path {
			path += seg.Ms
		}
		want := p.res.ckpts[k].CycleLatency.Milliseconds()
		if math.Abs(path-want) > 0.01*want {
			return m, fmt.Errorf("checkpoint %d: critical path sums to %.3f vms, coordinator reported a %.3f vms cycle", k, path, want)
		}
		k++
	}
	if k != len(p.res.ckpts) {
		return m, fmt.Errorf("trace holds %d checkpoint ops, harness issued %d", k, len(p.res.ckpts))
	}
	return m, nil
}

// treeTwin runs the workload's periodic checkpoints on a twin cluster
// with two-level coordination (GroupSize ⌈√n⌉). The lifecycle itself
// stays flat because replication under a tree loses holder reports
// (README known gap 3); the twin shows what the tree would buy.
func treeTwin(w *workload, in inputs) (map[string]float64, error) {
	p, err := deploy(w, in, cruz.Config{GroupSize: coord.GroupSizeFor(w.nodes)})
	if err != nil {
		return nil, fmt.Errorf("tree twin: deploy: %w", err)
	}
	if err := p.periodic(); err != nil {
		return nil, fmt.Errorf("tree twin: %w", err)
	}
	var msgs float64
	var lat []float64
	for _, ck := range p.res.ckpts {
		msgs += float64(ck.Messages)
		lat = append(lat, ck.Latency.Milliseconds())
	}
	return map[string]float64{
		"coord.tree_root_msgs_per_ckpt": msgs / float64(len(p.res.ckpts)),
		"coord.tree_ckpt_latency_vms":   median(lat),
	}, nil
}
