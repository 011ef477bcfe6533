package ckpt

import (
	"testing"

	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// adopt drives one offer/missing/transfer/adopt exchange between stores.
func adopt(t *testing.T, r *rig, src, dst *Store, pod string, seq int) *Transfer {
	t.Helper()
	offer, err := src.ExportOffer(pod, seq)
	if err != nil {
		t.Fatalf("ExportOffer: %v", err)
	}
	needSeqs, needHashes := dst.Missing(offer)
	tx, err := src.BuildTransfer(pod, seq, needSeqs, needHashes)
	if err != nil {
		t.Fatalf("BuildTransfer: %v", err)
	}
	done := false
	dst.Adopt(tx, func(_ int64, aerr error) {
		if aerr != nil {
			t.Errorf("Adopt: %v", aerr)
		}
		done = true
	})
	r.run(10 * sim.Second)
	if !done {
		t.Fatal("adopt never completed")
	}
	return tx
}

func TestReplicaAdoptBlobChain(t *testing.T) {
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "p", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 32 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(50 * sim.Millisecond)

	save := func(seq int, opts Options) {
		r.saveBlob(r.store, r.stopAndCapture(pod, seq, opts))
		// Resume only after the write lands, so virtual time spent on the
		// disk does not churn the worker's pages between checkpoints.
		pod.Resume()
	}
	save(1, Options{})
	r.run(20 * sim.Millisecond)
	save(2, Options{Incremental: true})

	peer := NewStore(r.kernels[1].Disk())
	if peer.HasSeq("p", 2) {
		t.Fatal("empty peer claims to hold the checkpoint")
	}
	tx := adopt(t, r, r.store, peer, "p", 2)
	if !peer.HasSeq("p", 2) || !peer.HasSeq("p", 1) {
		t.Fatal("peer does not hold the chain after adoption")
	}
	if len(tx.Images) != 2 {
		t.Fatalf("first transfer shipped %d images, want full chain of 2", len(tx.Images))
	}

	// An incremental on top only ships the delta: the peer already holds
	// the base chain.
	r.run(20 * sim.Millisecond)
	save(3, Options{Incremental: true})
	tx2 := adopt(t, r, r.store, peer, "p", 3)
	if len(tx2.Images) != 1 {
		t.Fatalf("incremental transfer shipped %d images, want 1", len(tx2.Images))
	}
	if tx2.TotalBytes >= tx.TotalBytes {
		t.Fatalf("delta transfer (%d B) not smaller than full (%d B)", tx2.TotalBytes, tx.TotalBytes)
	}

	// The replica restores like a local checkpoint.
	var img *Image
	peer.Load("p", 3, true, trace.SpanContext{}, func(i *Image, err error) {
		if err != nil {
			t.Errorf("merged Load on replica: %v", err)
		}
		img = i
	})
	r.run(10 * sim.Second)
	if img == nil || img.MemoryBytes() == 0 {
		t.Fatal("replica image empty")
	}
}

func TestReplicaAdoptDedupSendsOnlyMissingChunks(t *testing.T) {
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "d", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 64 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(50 * sim.Millisecond)

	// The pod stays stopped across save and adoption: memWorker stamps a
	// page with fresh content every ~1 ms step, so any virtual time it
	// runs (disk writes take real virtual time) churns page hashes and
	// would defeat the steady-state dedup this test measures.
	save := func(seq int) {
		r.saveDeduped(r.store, r.stopAndCapture(pod, seq, Options{Hashes: true}))
	}
	save(1)
	peer := NewStore(r.kernels[1].Disk())
	tx := adopt(t, r, r.store, peer, "d", 1)
	if len(tx.Chunks) == 0 || len(tx.Manifests) != 1 {
		t.Fatalf("first dedup transfer: %d chunks, %d manifests", len(tx.Chunks), len(tx.Manifests))
	}

	// Steady state: let the worker run briefly so only a few pages
	// change; the second checkpoint's pages then mostly dedup against
	// chunks the replica already holds, so transfer ≈ manifest only.
	pod.Resume()
	r.run(2 * sim.Millisecond)
	save(2)
	tx2 := adopt(t, r, r.store, peer, "d", 2)
	if len(tx2.Chunks) >= len(tx.Chunks)/2 {
		t.Fatalf("steady-state transfer shipped %d chunks vs %d initially — dedup not applied", len(tx2.Chunks), len(tx.Chunks))
	}
	var img *Image
	peer.Load("d", 2, true, trace.SpanContext{}, func(i *Image, err error) {
		if err != nil {
			t.Errorf("merged Load on dedup replica: %v", err)
		}
		img = i
	})
	r.run(10 * sim.Second)
	if img == nil {
		t.Fatal("replica dedup image missing")
	}
}
