package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"cruz"
	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/mem"
)

// replayReps is how often each replayed call is timed; the metric is the
// median.
const replayReps = 5

// replayer drives the page path and the control connection by hand on
// the cluster a traced pass left behind, one exported call at a time,
// each inside a harness span that records host time and bytes allocated.
// Nothing measured before it can be disturbed: the pass is over.
type replayer struct {
	p       *pass
	samples map[string][]float64
}

// timed runs fn inside a harness span and returns its host seconds and
// the bytes it allocated.
func (r *replayer) timed(kind string, fn func()) (sec, alloc float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := span{Kind: "replay." + kind, Start: time.Since(r.p.t0), VStart: r.p.cl.Engine.Now()}
	fn()
	s.End, s.VEnd = time.Since(r.p.t0), r.p.cl.Engine.Now()
	runtime.ReadMemStats(&after)
	s.Alloc = after.TotalAlloc - before.TotalAlloc
	r.p.res.spans = append(r.p.res.spans, s)
	return (s.End - s.Start).Seconds(), float64(s.Alloc)
}

func (r *replayer) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// replayLayers returns replayReps samples of every [r] metric.
func replayLayers(p *pass) (map[string][]float64, error) {
	r := &replayer{p: p, samples: map[string][]float64{}}
	// Each timed call is a few milliseconds; a collection landing inside
	// one would double it. Collect between repetitions instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	blob, err := r.pagePath()
	if err == nil {
		err = r.control(blob)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return r.samples, nil
}

// pagePath stops slm-0 and takes its memory through snapshot, capture,
// encode, decode, restore, hashing, the dedup plan and (EC workloads)
// erasure coding. It returns the encoded image.
func (r *replayer) pagePath() ([]byte, error) {
	cl := r.p.cl
	pod := cl.Pod("slm-0")
	stopped := false
	pod.Stop(func() { stopped = true })
	if !cl.RunUntil(func() bool { return stopped }, cruz.Second) {
		return nil, errors.New("slm-0 never stopped")
	}
	as := pod.Process(1).Mem()
	spare := cl.Nodes[len(cl.Nodes)-1].Kernel

	// An image with page hashes for the dedup and EC plans; taking it
	// first also fills the hash cache, so the timed captures below copy
	// pages and nothing else.
	hashed, err := ckpt.Capture(pod, 1000, ckpt.Options{Hashes: true})
	if err != nil {
		return nil, err
	}
	imgMB := float64(hashed.MemoryBytes()) / mib
	pages := float64(hashed.MemoryBytes()) / mem.PageSize

	var blob []byte
	for rep := 0; rep < replayReps; rep++ {
		runtime.GC()
		var snap *mem.AddressSpace
		sec, _ := r.timed("mem.snapshot", func() { snap = as.Snapshot() })
		snap.Release()
		r.add("mem.snapshot_host_us", sec*1e6)

		var img, dec *ckpt.Image
		capSec, capAlloc := r.timed("ckpt.capture", func() { img, err = ckpt.Capture(pod, 1000, ckpt.Options{}) })
		if err != nil {
			return nil, err
		}
		encSec, encAlloc := r.timed("ckpt.encode", func() { blob, err = img.Encode() })
		if err != nil {
			return nil, err
		}
		decSec, decAlloc := r.timed("ckpt.decode", func() { dec, err = ckpt.DecodeImage(blob) })
		if err != nil {
			return nil, err
		}
		r.add("ckpt.capture_host_mb_s", imgMB/capSec)
		r.add("ckpt.encode_host_mb_s", imgMB/encSec)
		r.add("ckpt.decode_host_mb_s", imgMB/decSec)
		r.add("ckpt.page_alloc_ratio", (capAlloc+encAlloc+decAlloc)/float64(hashed.MemoryBytes()))

		// Restore onto the spare, then hash the restored pages: freshly
		// installed pages have no cached hash, so every one is computed.
		var restored *cruz.Pod
		sec, _ = r.timed("ckpt.restore", func() { restored, err = ckpt.Restore(spare, dec) })
		if err != nil {
			return nil, err
		}
		r.add("ckpt.restore_host_mb_s", imgMB/sec)
		ras := restored.Process(1).Mem()
		base := ras.HashComputes()
		sec, _ = r.timed("mem.hash", func() {
			for _, pn := range ras.PageNumbers(false) {
				ras.PageHash(pn)
			}
		})
		r.add("mem.hash_host_mb_s", float64(ras.HashComputes()-base)*mem.PageSize/mib/sec)
		restored.Destroy()

		// A fresh store has seen no chunk: the plan hashes nothing (the
		// image carries the hashes) and inserts every page.
		store := ckpt.NewStore(spare.Disk())
		sec, _ = r.timed("ckpt.plan_dedup", func() { _, err = store.PlanDedupSave(hashed) })
		if err != nil {
			return nil, err
		}
		r.add("ckpt.plan_dedup_host_us_per_page", sec*1e6/pages)

		if err := r.erasure(store); err != nil {
			return nil, err
		}
	}
	return blob, nil
}

// erasure encodes the image just planned into store and reconstructs it
// elsewhere from the last M holders' shards, as recovery does after the
// first R holders are lost. A workload without an EC tier reports 0.
func (r *replayer) erasure(store *ckpt.Store) error {
	ec := r.p.w.ec
	if !ec.Enabled() {
		r.add("ckpt.ec_encode_host_mb_s", 0)
		r.add("ckpt.ec_reconstruct_host_mb_s", 0)
		return nil
	}
	var plan *ckpt.ECPlan
	var err error
	sec, _ := r.timed("ckpt.ec_encode", func() { plan, err = store.PlanECSave("slm-0", 1000, ec) })
	if err != nil {
		return err
	}
	r.add("ckpt.ec_encode_host_mb_s", float64(plan.DataBytes)/mib/sec)

	offer, err := store.ExportOffer("slm-0", 1000)
	if err != nil {
		return err
	}
	var hashes []mem.PageHash
	for holder := ec.R; holder < ec.M+ec.R; holder++ {
		hashes = append(hashes, plan.Set.HolderHashes(holder)...)
	}
	shards, err := store.BuildTransfer("slm-0", 1000, offer.Chain, hashes)
	if err != nil {
		return err
	}
	var rec *ckpt.ECRecovery
	target := ckpt.NewStore(store.Disk())
	sec, _ = r.timed("ckpt.ec_reconstruct", func() { rec, err = target.ReconstructEC(plan.Set, shards.Manifests, shards.Chunks) })
	if err != nil {
		return err
	}
	if rec.DecodedChunks == 0 {
		return errors.New("EC reconstruct decoded nothing: every data shard was supplied")
	}
	r.add("ckpt.ec_reconstruct_host_mb_s", float64(rec.TotalBytes)/mib/sec)
	return nil
}

// control opens one ctl.Conn between two live nodes and pushes the
// encoded image through it as a single frame (what replication and
// migration do), then 4·n empty frames one at a time (a flat
// checkpoint's control messages), stepping the engine until each lands.
func (r *replayer) control(blob []byte) error {
	cl := r.p.cl
	src, dst := cl.Nodes[2], cl.Nodes[0]
	l, err := dst.Kernel.Stack().ListenTCP(cruz.AddrPort{Addr: dst.Addr(), Port: 7700}, 1)
	if err != nil {
		return err
	}
	defer l.Close()
	frames := 0
	l.SetNotify(func() {
		if tc, err := l.Accept(); err == nil {
			ctl.NewConn(tc, func(*ctl.Conn, []byte) { frames++ }, nil)
		}
	})
	tc, err := src.Kernel.Stack().DialTCP(cruz.AddrPort{Addr: src.Addr()}, l.LocalAddr())
	if err != nil {
		return err
	}
	conn := ctl.NewConn(tc, func(*ctl.Conn, []byte) {}, nil)
	if !cl.RunUntil(tc.Established, cruz.Second) {
		return errors.New("control connection never established")
	}

	// deliver sends one frame and steps the engine until it has arrived.
	deliver := func(payload []byte) {
		if err = conn.Send(payload); err != nil {
			return
		}
		for want := frames + 1; frames < want; {
			if !cl.Engine.Step() {
				err = errors.New("engine ran dry before the frame arrived")
				return
			}
		}
	}
	for rep := 0; rep < replayReps; rep++ {
		runtime.GC()
		sec, alloc := r.timed("ctl.bulk", func() { deliver(blob) })
		if err != nil {
			return err
		}
		r.add("ctl.bulk_host_mb_s", float64(len(blob))/mib/sec)
		r.add("ctl.bulk_alloc_ratio", alloc/float64(len(blob)))

		small := 4 * r.p.w.nodes
		sec, _ = r.timed("ctl.small", func() {
			for i := 0; i < small && err == nil; i++ {
				deliver(nil)
			}
		})
		if err != nil {
			return err
		}
		r.add("ctl.small_frame_host_us", sec*1e6/float64(small))
		r.add("ctl.framepool_hit_ratio", ratio(float64(conn.Pool.Hits), float64(conn.Pool.Hits+conn.Pool.Misses)))
	}
	return nil
}
