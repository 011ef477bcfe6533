package main

import (
	"math"
	"sort"
)

// metricDef describes one reported number. The end-to-end table is what
// BENCHMARK.json gates; the per-layer table is what a traced run adds.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the parent's median
	// Clock is "v" for virtual time of the modelled cluster (exact for a
	// seed) or "h" for host time and memory of the Go simulator (median
	// of the measured passes).
	Clock string
	// Source of a per-layer metric: "c" exported counters diffed around
	// the measured section, "p" virtual-time phases from the program's
	// own tracer, "r" layer replay after the traced pass, "s" harness
	// spans around facade calls.
	Source string
	// Moves names the end-to-end metric a change to this number should
	// move, and the workload where it should show.
	Moves string
}

var endToEnd = []metricDef{
	{Name: "ckpt_latency_vms", Unit: "vms", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "ckpt_freeze_vms", Unit: "vms", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "coord_overhead_vus", Unit: "vus", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "restart_latency_vms", Unit: "vms", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "recover_mttr_vms", Unit: "vms", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "migrate_downtime_vms", Unit: "vms", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "app_steps_per_vs", Unit: "steps/vs", Better: "higher", Bound: 0.02, Clock: "v"},
	{Name: "net_mb_per_pass", Unit: "MiB", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "disk_mb_per_pass", Unit: "MiB", Better: "lower", Bound: 0.02, Clock: "v"},
	{Name: "host_s_per_pass", Unit: "s", Better: "lower", Bound: 0.25, Clock: "h"},
	{Name: "host_allocs_k_per_pass", Unit: "k", Better: "lower", Bound: 0.01, Clock: "h"},
	{Name: "host_alloc_mb_per_pass", Unit: "MiB", Better: "lower", Bound: 0.02, Clock: "h"},
	{Name: "host_live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05, Clock: "h"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "h"},
}

const mib = 1 << 20

// eventsKey is the engine's event count in the map virtualMetrics
// returns: not an end-to-end metric, but the sharpest of the quantities
// that must not differ between two passes.
const eventsKey = "sim.events_per_pass"

// virtualMetrics computes the virtual-clock end-to-end metrics of one
// pass, and its event count. They depend only on the program and the
// generated inputs, so every pass of a run must produce the same map,
// bit for bit.
func virtualMetrics(r *passResult) map[string]float64 {
	var lat, freeze, ovh []float64
	for _, c := range r.ckpts {
		lat = append(lat, c.Latency.Milliseconds())
		freeze = append(freeze, c.MaxBlocked.Milliseconds())
		ovh = append(ovh, (c.CycleLatency - c.MaxLocalCheckpoint).Microseconds())
	}
	// Bytes Cruz itself moves: everything through the coordinator's NIC
	// (it hosts no application), replica and migration streams (agents
	// count both in ReplBytes), EC shard pushes, and recovery fetches.
	net := r.counters[cSvcBytes] + r.counters[cReplBytes] + r.counters[cECShardBytes] + uint64(r.recovery.TransferBytes)
	var downtime float64
	for _, m := range r.migrations {
		downtime += m.Downtime.Milliseconds()
	}
	return map[string]float64{
		eventsKey:              float64(r.counters[cEvents]),
		"ckpt_latency_vms":     median(lat),
		"ckpt_freeze_vms":      median(freeze),
		"coord_overhead_vus":   median(ovh),
		"restart_latency_vms":  r.restart.Latency.Milliseconds(),
		"recover_mttr_vms":     r.recovery.MTTR.Milliseconds(),
		"migrate_downtime_vms": downtime / float64(len(r.migrations)),
		"app_steps_per_vs":     float64(r.steps) / r.stepsVirt.Seconds(),
		"net_mb_per_pass":      float64(net) / mib,
		"disk_mb_per_pass":     float64(r.counters[cDiskWritten]) / mib,
	}
}

// hostMetrics are one pass's host-clock end-to-end samples.
func hostMetrics(r *passResult) map[string]float64 {
	return map[string]float64{
		"host_s_per_pass":        r.host.Seconds(),
		"host_allocs_k_per_pass": float64(r.mallocs) / 1e3,
		"host_alloc_mb_per_pass": float64(r.allocated) / mib,
		"host_live_heap_mb":      float64(r.liveHeap) / mib,
		"setup_s":                r.setup.Seconds(),
	}
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), so
// the spreads printed here are the ones the acceptance rule computes.
// With fewer than two samples all three are the sample itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
