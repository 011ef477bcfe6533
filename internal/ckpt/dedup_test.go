package ckpt

import (
	"errors"
	"reflect"
	"testing"

	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

func init() {
	RegisterProgram(&churnWorker{})
}

// churnWorker rewrites one hot page with fresh, never-repeating content
// every step (plus a rotating cold page), so successive checkpoints of it
// strand uniquely-contented stale page versions — exactly what chain
// compaction exists to garbage-collect. (memWorker is unsuitable here:
// its counter page always coincides with some stamped page, so its stale
// versions stay referenced.)
type churnWorker struct {
	Heap     uint64
	HeapSize uint64
	Iter     uint64
}

func (w *churnWorker) Step(ctx *kernel.ProcContext) kernel.StepResult {
	m := ctx.Mem()
	if w.Heap == 0 {
		base, err := m.Alloc(w.HeapSize, "heap")
		if err != nil {
			return kernel.Exit(0, 1)
		}
		w.Heap = base
	}
	w.Iter++
	// Two counter cells make the hot page's content distinct from any
	// single-stamp page.
	if err := m.WriteUint64(w.Heap, w.Iter); err != nil {
		return kernel.Exit(0, 1)
	}
	if err := m.WriteUint64(w.Heap+8, ^w.Iter); err != nil {
		return kernel.Exit(0, 1)
	}
	page := (w.Iter % (w.HeapSize / mem.PageSize)) * mem.PageSize
	if err := m.WriteUint64(w.Heap+page+16, w.Iter); err != nil {
		return kernel.Exit(0, 1)
	}
	return kernel.Sleep(100*sim.Microsecond, sim.Millisecond)
}

// unregisteredProg is deliberately never passed to RegisterProgram, so
// capturing it fails at gob-encode time.
type unregisteredProg struct{ N int }

func (u *unregisteredProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	u.N++
	return kernel.Sleep(100*sim.Microsecond, sim.Millisecond)
}

func TestFailedCaptureKeepsDirtyTracking(t *testing.T) {
	// Regression: Capture used to clear each process's dirty bits as it
	// went, so a failure on a later process silently corrupted the next
	// incremental checkpoint of the earlier ones. A capture moves no
	// dirty base, failed or not: only keeping its image does.
	r := newRig(t, 1)
	pod, err := zap.New(r.kernels[0], "mixed", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	if err != nil {
		t.Fatal(err)
	}
	w := &memWorker{HeapSize: 64 * mem.PageSize}
	if _, err := pod.Spawn("w", w); err != nil {
		t.Fatal(err)
	}
	if _, err := pod.Spawn("odd", &unregisteredProg{}); err != nil {
		t.Fatal(err)
	}
	r.run(50 * sim.Millisecond)
	stopped := false
	pod.Stop(func() { stopped = true })
	r.run(50 * sim.Millisecond)
	if !stopped {
		t.Fatal("pod did not quiesce")
	}

	as := pod.Process(1).Mem()
	before := as.DirtyPages()
	if before == 0 {
		t.Fatal("worker dirtied no pages; test is vacuous")
	}
	if _, err := Capture(pod, 1, Options{}); err == nil {
		t.Fatal("capture of unregistered program type succeeded")
	}
	if got := as.DirtyPages(); got != before {
		t.Fatalf("failed capture changed dirty tracking: %d pages dirty, want %d", got, before)
	}
}

func TestDedupSaveChargesOnlyNewBytes(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "dd", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 128 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(50 * sim.Millisecond)

	save := func(img *Image) *SavePlan { return r.saveDeduped(r.store, img) }

	img1 := r.stopAndCapture(pod, 1, Options{Hashes: true})
	plan1 := save(img1)
	// A cold save may still find the odd duplicate (the worker's counter
	// page can coincide with a stamped page), but nearly everything must
	// be new, and every page must be accounted for one way or the other.
	if got := int64(plan1.Stats.NewChunks+plan1.Stats.DupChunks) * mem.PageSize; got != img1.MemoryBytes() {
		t.Fatalf("cold save accounted %d B, image holds %d B", got, img1.MemoryBytes())
	}
	if plan1.Stats.NewChunkBytes < img1.MemoryBytes()*9/10 {
		t.Fatalf("cold save wrote only %d of %d B as new chunks", plan1.Stats.NewChunkBytes, img1.MemoryBytes())
	}

	pod.Resume()
	r.run(5 * sim.Millisecond) // dirties a handful of pages
	img2 := r.stopAndCapture(pod, 2, Options{Hashes: true})
	plan2 := save(img2)
	if plan2.Stats.DupChunks == 0 {
		t.Fatal("warm full save deduplicated nothing")
	}
	if plan2.Stats.NewChunkBytes >= plan1.Stats.NewChunkBytes/4 {
		t.Fatalf("warm save wrote %d new chunk bytes, want far less than cold %d",
			plan2.Stats.NewChunkBytes, plan1.Stats.NewChunkBytes)
	}
	if plan2.TotalBytes >= plan1.TotalBytes/2 {
		t.Fatalf("warm save writes %d B to disk, cold wrote %d", plan2.TotalBytes, plan1.TotalBytes)
	}

	st := r.store.Stats()
	if st.NewChunks != int64(plan1.Stats.NewChunks+plan2.Stats.NewChunks) ||
		st.DupChunks != int64(plan1.Stats.DupChunks+plan2.Stats.DupChunks) {
		t.Fatalf("store stats %+v do not add up to the plans", st)
	}
	// Loading the deduplicated checkpoint reproduces the capture exactly.
	var loaded *Image
	r.store.Load("dd", 2, false, trace.SpanContext{}, func(img *Image, err error) {
		if err != nil {
			t.Errorf("Load: %v", err)
		}
		loaded = img
	})
	r.run(10 * sim.Second)
	if loaded == nil {
		t.Fatal("load never completed")
	}
	if !reflect.DeepEqual(normalizeImage(t, img2), normalizeImage(t, loaded)) {
		t.Fatal("deduplicated round trip differs from the captured image")
	}
}

func TestCompactFoldsChainAndFreesChunks(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "gc", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &churnWorker{HeapSize: 64 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(30 * sim.Millisecond)

	r.saveDeduped(r.store, r.stopAndCapture(pod, 1, Options{Hashes: true}))
	for seq := 2; seq <= 4; seq++ {
		pod.Resume()
		r.run(5 * sim.Millisecond)
		r.saveDeduped(r.store, r.stopAndCapture(pod, seq, Options{Hashes: true, Incremental: true}))
	}
	finalIter := w.Iter
	pod.Destroy()

	loadMerged := func() *Image {
		t.Helper()
		var img *Image
		r.store.Load("gc", 4, true, trace.SpanContext{}, func(i *Image, err error) {
			if err != nil {
				t.Errorf("Load merged: %v", err)
			}
			img = i
		})
		r.run(10 * sim.Second)
		if img == nil {
			t.Fatal("load never completed")
		}
		return img
	}
	before := loadMerged()
	chunksBefore := r.store.ChunkCount()

	compacted := false
	r.store.Compact("gc", func(n int64, err error) {
		if err != nil {
			t.Errorf("Compact: %v", err)
		}
		if n <= 0 {
			t.Errorf("Compact wrote %d bytes, want a manifest", n)
		}
		compacted = true
	})
	r.run(10 * sim.Second)
	if !compacted {
		t.Fatal("compact never completed")
	}
	st := r.store.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d", st.Compactions)
	}
	// Each incremental rewrote the counter page; folding the chain must
	// drop the superseded versions from the chunk table.
	if st.FreedChunks == 0 || r.store.ChunkCount() >= chunksBefore {
		t.Fatalf("compact freed %d chunks (store %d -> %d), want stale page versions gone",
			st.FreedChunks, chunksBefore, r.store.ChunkCount())
	}
	if seq, ok := r.store.LatestSeq("gc"); !ok || seq != 4 {
		t.Fatalf("latest after compact = %d, %v", seq, ok)
	}

	after := loadMerged()
	if !reflect.DeepEqual(normalizeImage(t, before), normalizeImage(t, after)) {
		t.Fatal("compaction changed the restored image")
	}
	// Compacting an already-folded store is a no-op, not an error.
	r.store.Compact("gc", func(n int64, err error) {
		if err != nil || n != 0 {
			t.Errorf("second compact = (%d, %v), want no-op", n, err)
		}
	})

	pod2, err := Restore(r.kernels[0], after)
	if err != nil {
		t.Fatal(err)
	}
	if got := pod2.Process(1).Program().(*churnWorker).Iter; got != finalIter {
		t.Fatalf("restored Iter = %d, want %d", got, finalIter)
	}
	pod2.Resume()
	r.run(10 * sim.Millisecond)
	if pod2.Process(1).Program().(*churnWorker).Iter <= finalIter {
		t.Fatal("restored-from-compacted worker did not continue")
	}
}

// normalizeImage passes the image through a gob round trip so nil/empty
// representation differences wash out, then strips what legitimately
// differs between storage routes: capture-time hash accounting, and the
// encoding the round trip leaves cached.
func normalizeImage(t *testing.T, img *Image) *Image {
	t.Helper()
	blob, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	out.FreshHashes, out.head = 0, nil
	return out
}

func TestRestorePathsEquivalent(t *testing.T) {
	// Property: the same checkpoint chain restored six ways — in-memory
	// image merge, blob store, deduplicated manifests, deduplicated
	// manifests after Compact, a pre-copy chain of live COW rounds
	// topped by a stopped residual, and a 4+2 erasure-coded set decoded
	// with two shard positions lost — yields byte-identical memory and
	// identical TCP state. Exercised against a pod with a live
	// mid-stream TCP connection plus a memory-churning worker.
	r := newRig(t, 3)
	pod, _ := zap.New(r.kernels[0], "eq", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	server := &podServer{Port: 7}
	pod.Spawn("echod", server)
	w := &memWorker{HeapSize: 64 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(20 * sim.Millisecond)

	clientStack := r.kernels[1].Stack()
	conn, err := clientStack.DialTCP(tcpip.AddrPort{}, tcpip.AddrPort{Addr: podIP(0), Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.run(20 * sim.Millisecond)
	if conn.State() != tcpip.StateEstablished {
		t.Fatalf("client not established: %v", conn.State())
	}
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	sent, recvd := 0, 0
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 8192)
	pump := func(budget int) {
		for steps := 0; steps < budget; steps++ {
			if sent < len(payload) {
				if n, err := conn.Send(payload[sent:]); err == nil {
					sent += n
				}
			}
			if n, err := conn.Recv(buf, false); err == nil {
				got = append(got, buf[:n]...)
				recvd += n
			}
			r.run(2 * sim.Millisecond)
			if recvd >= len(payload) {
				return
			}
		}
	}

	pump(8)
	imgs := []*Image{r.stopAndCapture(pod, 1, Options{Hashes: true})}
	for seq := 2; seq <= 3; seq++ {
		pod.Resume()
		pump(5)
		imgs = append(imgs, r.stopAndCapture(pod, seq, Options{Hashes: true, Incremental: true}))
	}

	// Route E: pre-copy. Unlike routes A-D this chain is built while the
	// pod RUNS — three live COW rounds captured concurrently with the
	// echo stream and the heap churn, topped by a residual captured
	// stopped. Its ground truth is a direct full capture taken at the
	// residual stop: byte equality proves no post-snapshot write leaked
	// into any round and no dirtied page was lost between rounds.
	pre := NewStore(r.kernels[0].Disk())
	pod.Resume()
	baseSeq := 0
	for round := 0; round < 3; round++ {
		pump(3) // live TCP traffic + heap writes before the snapshot
		lc, err := CaptureLive(pod, 4+round, Options{Incremental: round > 0, Hashes: true, BaseSeq: baseSeq})
		if err != nil {
			t.Fatal(err)
		}
		// Writes landing after the snapshot instant take COW breaks and
		// must stay out of this round's image (they reappear dirty in
		// the next round or the residual).
		pump(2)
		r.saveDeduped(pre, lc.Image)
		Keep(pod, lc.Image)
		lc.Release()
		baseSeq = 4 + round
	}
	resid := r.stopAndCapture(pod, 7, Options{Incremental: true, Hashes: true, BaseSeq: baseSeq})
	preTruth, err := Capture(pod, 7, Options{Hashes: true}) // same stopped instant
	if err != nil {
		t.Fatal(err)
	}
	r.saveDeduped(pre, resid)
	pod.Destroy()

	// Route A: plain in-memory merge of the chain — the ground truth.
	want := imgs[0]
	for _, inc := range imgs[1:] {
		if want, err = Merge(want, inc); err != nil {
			t.Fatal(err)
		}
	}

	// Routes B/C/D/E store the chain and read it back merged.
	load := func(s *Store, seq int) *Image {
		t.Helper()
		var img *Image
		s.Load("eq", seq, true, trace.SpanContext{}, func(i *Image, err error) {
			if err != nil {
				t.Errorf("Load merged: %v", err)
			}
			img = i
		})
		r.run(10 * sim.Second)
		if img == nil {
			t.Fatal("load never completed")
		}
		return img
	}
	routes := map[string]*Image{}

	blobStore := NewStore(r.kernels[0].Disk())
	for _, img := range imgs {
		r.saveBlob(blobStore, img)
	}
	routes["blob"] = load(blobStore, 3)

	for name, compact := range map[string]bool{"dedup": false, "dedup+compact": true} {
		s := NewStore(r.kernels[0].Disk())
		for _, img := range imgs {
			r.saveDeduped(s, img)
		}
		if compact {
			s.Compact("eq", nil)
			r.run(10 * sim.Second)
		}
		routes[name] = load(s, 3)
	}

	// Route F: erasure coding with losses. The chain is striped 4+2 on a
	// source store; the destination receives the chain manifests and
	// only four of the six rotated shard positions (holders 1 and 3
	// dead — the R-loss worst case), so every stripe whose surviving
	// positions miss a data shard must be decoded before restore.
	{
		src := NewStore(r.kernels[0].Disk())
		for _, img := range imgs {
			r.saveDeduped(src, img)
		}
		p := ECParams{M: 4, R: 2}
		set := r.saveEC(src, "eq", 3, p).Set
		chain, terr := src.BuildTransfer("eq", 3, set.Chain, nil)
		if terr != nil {
			t.Fatal(terr)
		}
		manifests := chain.Manifests
		var blocks []ChunkData
		seen := make(map[mem.PageHash]bool)
		for _, holder := range []int{0, 2, 4, 5} { // holders 1 and 3 lost
			for _, h := range set.HolderHashes(holder) {
				if seen[h] {
					continue
				}
				seen[h] = true
				blocks = append(blocks, ChunkData{Hash: h, Data: src.chunks[h].data})
			}
		}
		dst := NewStore(r.kernels[2].Disk())
		rec, rerr := dst.ReconstructEC(set, manifests, blocks)
		if rerr != nil {
			t.Fatalf("ReconstructEC: %v", rerr)
		}
		if rec.DecodedChunks == 0 {
			t.Fatal("reconstruction decoded nothing — the loss pattern exercised no parity")
		}
		routes["ec"] = load(dst, 3)
	}

	wantNorm := normalizeImage(t, want)
	for name, img := range routes {
		norm := normalizeImage(t, img)
		for i := range wantNorm.Processes {
			wp, gp := &wantNorm.Processes[i], &norm.Processes[i]
			if !reflect.DeepEqual(wp.Memory, gp.Memory) {
				t.Fatalf("route %s: vpid %d memory differs from in-memory merge", name, wp.VPID)
			}
			if !reflect.DeepEqual(wp.FDs, gp.FDs) {
				t.Fatalf("route %s: vpid %d descriptor/TCP state differs", name, wp.VPID)
			}
		}
		if !reflect.DeepEqual(wantNorm, norm) {
			t.Fatalf("route %s: restored image differs from in-memory merge", name)
		}
	}

	// Route E compares against its own ground truth (the pod ran on past
	// the seq-3 state while its rounds streamed).
	preMerged := load(pre, 7)
	preNorm, truthNorm := normalizeImage(t, preMerged), normalizeImage(t, preTruth)
	for i := range truthNorm.Processes {
		wp, gp := &truthNorm.Processes[i], &preNorm.Processes[i]
		if !reflect.DeepEqual(wp.Memory, gp.Memory) {
			t.Fatalf("precopy route: vpid %d memory differs from stopped capture", wp.VPID)
		}
		if !reflect.DeepEqual(wp.FDs, gp.FDs) {
			t.Fatalf("precopy route: vpid %d descriptor/TCP state differs", wp.VPID)
		}
	}
	if !reflect.DeepEqual(truthNorm, preNorm) {
		t.Fatal("precopy route: merged chain differs from stopped capture")
	}

	// And the pre-copy chain really restores: finish the echo stream
	// through the revived pod on a third node. (The client advanced past
	// the seq-3 state during the rounds, so the pre-copy image is the
	// only one consistent with its TCP peer.)
	pod2, err := Restore(r.kernels[2], preMerged)
	if err != nil {
		t.Fatal(err)
	}
	pod2.Resume()
	pump(3000)
	if recvd != len(payload) {
		t.Fatalf("client received %d of %d echoed bytes across restore", recvd, len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("echoed byte %d corrupted across restore", i)
		}
	}
	if conn.Err() != nil {
		t.Fatalf("client connection saw error: %v", conn.Err())
	}
}

func TestDedupStoreMissingChain(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "orphan", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 4 * mem.PageSize})
	r.run(10 * sim.Millisecond)
	img := r.stopAndCapture(pod, 2, Options{Hashes: true, Incremental: true})
	img.BaseSeq = 1 // base was never saved
	r.saveDeduped(r.store, img)
	r.store.Load("orphan", 2, true, trace.SpanContext{}, func(img *Image, err error) {
		if !errors.Is(err, ErrNoImage) {
			t.Errorf("merged Load with missing base = %v", err)
		}
	})
	// An image captured without hashes cannot enter the dedup store.
	plain, err := Capture(pod, 3, Options{}) // pod is still stopped
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.store.PlanDedupSave(plain); err == nil {
		t.Fatal("PlanDedupSave accepted an image without page hashes")
	}
}
