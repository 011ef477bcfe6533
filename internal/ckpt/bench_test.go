package ckpt

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/zap"
)

// benchKernel returns a node's kernel on a one-port switch.
func benchKernel(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	engine := sim.NewEngine(99)
	sw := ether.NewSwitch(engine)
	mac := ether.MAC{2, 0, 0, 0, 0, 1}
	nic := ether.NewNIC(engine, "eth0", mac)
	sw.Attach(nic, ether.GigabitLink)
	st := tcpip.NewStack(engine, "node")
	if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, 1}, mac, nic, false); err != nil {
		tb.Fatal(err)
	}
	return kernel.New(engine, "node", st)
}

// benchPod builds a stopped pod whose worker has dirtied a sizeable heap,
// ready for repeated captures.
func benchPod(b testing.TB, pages uint64) *zap.Pod {
	b.Helper()
	k := benchKernel(b)
	engine := k.Engine()
	pod, err := zap.New(k, "bench", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	if err != nil {
		b.Fatal(err)
	}
	w := &memWorker{HeapSize: pages * mem.PageSize}
	if _, err := pod.Spawn("w", w); err != nil {
		b.Fatal(err)
	}
	if err := engine.RunFor(sim.Duration(pages) * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	stopped := false
	pod.Stop(func() { stopped = true })
	if err := engine.RunFor(50 * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	if !stopped {
		b.Fatal("pod did not quiesce")
	}
	return pod
}

// BenchmarkCapture measures repeated full captures of a warm pod — the
// steady state of periodic checkpointing. A blob-form capture, and a
// hashed one with no store, freeze the pod's pages instead of copying
// them; one against a store holding the previous checkpoint ("dedup")
// references that checkpoint's chunks. None copies a page. The pooled
// encode buffers and the page-hash cache keep everything else flat.
func BenchmarkCapture(b *testing.B) {
	pod := benchPod(b, 512)
	img, err := Capture(pod, 1, Options{Hashes: true})
	if err != nil {
		b.Fatal(err)
	}
	store := NewStore(nil)
	if _, err := store.PlanDedupSave(img); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"blob", Options{}},
		{"hashed", Options{Hashes: true}},
		{"dedup", Options{Hashes: true, Store: store}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(img.MemoryBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Capture(pod, i+2, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCaptureThenWrite measures the cycle a hashed checkpoint puts
// a running pod through: a capture of its 2,048 pages, k page writes, and
// the next capture. A capture freezes the pages it keeps and a write
// copies a frozen page first, so B/op grows with k, by about a page per
// write, and not with the pod's 2,048 pages.
func BenchmarkCaptureThenWrite(b *testing.B) {
	pod := benchPod(b, 2048)
	as := pod.Process(1).Mem()
	pns := as.PageNumbers(false)
	for _, k := range []int{0, 16, 512} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Capture(pod, 2*i+1, Options{Hashes: true}); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < k; j++ {
					if err := as.Write(pns[j*len(pns)/k]*mem.PageSize, []byte{byte(i)}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := Capture(pod, 2*i+2, Options{Hashes: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCaptureLive measures a hashed pre-copy round of a running
// 2,048-page pod: the live capture, k page writes while it protects the
// pod's address space, and its Release. The capture freezes the pages it
// keeps and a write copies a frozen page first, so B/op grows with k, by
// about a page per write, and not with the pod's 2,048 pages.
func BenchmarkCaptureLive(b *testing.B) {
	pod := benchPod(b, 2048)
	as := pod.Process(1).Mem()
	pns := as.PageNumbers(false)
	for _, k := range []int{0, 16, 512} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lc, err := CaptureLive(pod, i+1, Options{Hashes: true})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < k; j++ {
					if err := as.Write(pns[j*len(pns)/k]*mem.PageSize, []byte{byte(i)}); err != nil {
						b.Fatal(err)
					}
				}
				lc.Release()
			}
		})
	}
}

// mergePair captures a full image of a warm pod of the given size and an
// increment on top of it, the inputs of every merge.
func mergePair(b *testing.B, pages uint64) (full, inc *Image) {
	b.Helper()
	pod := benchPod(b, pages)
	full, err := Capture(pod, 1, Options{Hashes: true})
	if err != nil {
		b.Fatal(err)
	}
	pod.Resume()
	if err := pod.Kernel().Engine().RunFor(20 * sim.Millisecond); err != nil {
		b.Fatal(err)
	}
	stopped := false
	pod.Stop(func() { stopped = true })
	if err := pod.Kernel().Engine().RunFor(50 * sim.Millisecond); err != nil || !stopped {
		b.Fatalf("pod did not quiesce (%v)", err)
	}
	if inc, err = Capture(pod, 2, Options{Hashes: true, Incremental: true}); err != nil {
		b.Fatal(err)
	}
	return full, inc
}

// BenchmarkEncode measures encoding a merged image, whose encoding is
// built by copying its pages, as a hashed capture's is: an unhashed
// capture is encoded as it is captured, and a decoded image is its blob.
// Each iteration encodes an unencoded copy, since an image keeps its
// encoding (and points its pages into it, hence the copied process list).
func BenchmarkEncode(b *testing.B) {
	merged, err := Merge(mergePair(b, 512))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(merged.MemoryBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := *merged
		img.Processes = slices.Clone(merged.Processes)
		if _, err := img.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerge measures folding an increment into a full image — what
// a restart of a blob chain and a migration's pre-merge do per link. It
// moves page references, not pages: B/op grows by the merged page lists
// (32 B a page) as the page count grows, and stays far below SetBytes.
func BenchmarkMerge(b *testing.B) {
	for _, pages := range []uint64{128, 512} {
		b.Run(fmt.Sprint(pages), func(b *testing.B) {
			full, inc := mergePair(b, pages)
			b.SetBytes(full.MemoryBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Merge(full, inc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreFromManifest measures rebuilding an image from a
// deduplicated checkpoint's manifest and the store's chunks — the last
// step of every deduplicated load. The image references the chunks: B/op
// grows by the page lists as the page count grows, not by the pages.
func BenchmarkRestoreFromManifest(b *testing.B) {
	for _, pages := range []uint64{128, 512} {
		b.Run(fmt.Sprint(pages), func(b *testing.B) {
			pod := benchPod(b, pages)
			img, err := Capture(pod, 1, Options{Hashes: true})
			if err != nil {
				b.Fatal(err)
			}
			s := NewStore(pod.Kernel().Disk())
			if _, err := s.PlanDedupSave(img); err != nil {
				b.Fatal(err)
			}
			m := s.get("bench", 1).manifest
			b.SetBytes(img.MemoryBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := imageFromManifest(m, s.chunkData); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestore measures rebuilding a one-process pod from its image
// — what every restart, recovery and migration does per pod — and
// tearing it down again. Its allocations do not grow with the page
// count: the process's pages are the image's arrays under headers from
// one slab, and its program state goes through a primed codec. A collection empties every sync.Pool
// (gob's and fmt's among them), and the refills land on the restore
// that follows it, so the collector runs only when the heap nears a
// limit: a few times per hundred iterations, whatever the image size.
// Between iterations, off the clock, the node runs the events a restore
// leaves queued, which would otherwise keep every restored pod alive.
func BenchmarkRestore(b *testing.B) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	for _, pages := range []int{128, 2048} {
		b.Run(fmt.Sprint(pages), func(b *testing.B) {
			k, img := benchKernel(b), restorableImage(b, pages)
			b.SetBytes(img.MemoryBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pod, err := Restore(k, img)
				if err != nil {
					b.Fatal(err)
				}
				pod.Destroy()
				b.StopTimer()
				if err := k.Engine().RunFor(sim.Millisecond); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkDecodeImage measures the read side of every store load and
// replica adoption: parsing the gob head and pointing the image's pages
// at the blob. It must not scale with the page bytes.
func BenchmarkDecodeImage(b *testing.B) {
	pod := benchPod(b, 512)
	img, err := Capture(pod, 1, Options{Hashes: true})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := img.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(img.MemoryBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeImage(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// stripedStore returns a store holding one deduplicated checkpoint, ec/1,
// of stripes·p.M distinct pages: the chain PlanECSave stripes.
func stripedStore(stripes int, p ECParams) *Store {
	s := NewStore(nil)
	putPages(s, 1, numberedPages(stripes*p.M))
	return s
}

// numberedPages returns n distinct pages, page i starting with i+1.
func numberedPages(n int) [][]byte {
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, mem.PageSize)
		binary.LittleEndian.PutUint64(pages[i], uint64(i+1))
	}
	return pages
}

// putPages registers a full deduplicated checkpoint ec/seq whose page i is
// pages[i], making each page resident and taking its reference.
func putPages(s *Store, seq int, pages [][]byte) {
	refs := make([]PageRef, len(pages))
	for i, data := range pages {
		refs[i] = PageRef{PN: uint64(i), Hash: mem.HashBlock(data)}
		s.putChunk(refs[i].Hash, data)
		s.ref(refs[i].Hash, 1)
	}
	s.putManifest("ec", seq, &Manifest{PodName: "ec", Seq: seq, Procs: []ProcManifest{{Pages: refs}}}, 0)
}

// BenchmarkDecodeECSet measures parsing the shard manifest of a 4+2 set of
// 256 stripes — what every shard holder does once per distribution, and a
// recovering node once per pull. Its allocations do not grow with the
// stripe count.
func BenchmarkDecodeECSet(b *testing.B) {
	p := ECParams{M: 4, R: 2}
	plan, err := stripedStore(256, p).PlanECSave("ec", 1, p)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := plan.Set.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeECSet(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanECSave measures striping a checkpoint of 1,024 chunks into
// a 4+2 set of 256 stripes: the parity math, the stripe layout and the
// chunk-table references. "full" plans on a store with no prior set, so
// every stripe is encoded. "steady" plans a chain that differs from the
// one the prior set striped in one stripe in four, as periodic
// checkpoints of a pod that writes a quarter of its stripes do: the
// other stripes keep the prior set's parity.
func BenchmarkPlanECSave(b *testing.B) {
	p := ECParams{M: 4, R: 2}
	b.Run("full", func(b *testing.B) {
		s := stripedStore(256, p)
		b.SetBytes(256 * int64(p.M) * mem.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.PlanECSave("ec", 1, p); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.dropSet(s.pods["ec"][1])
			b.StartTimer()
		}
	})
	b.Run("steady", func(b *testing.B) {
		chains := [2][][]byte{numberedPages(256 * p.M)}
		chains[1] = slices.Clone(chains[0])
		for i := 0; i < 256; i += 4 {
			page := make([]byte, mem.PageSize)
			binary.LittleEndian.PutUint64(page, uint64(1<<32+i))
			chains[1][i*p.M] = page
		}
		s := NewStore(nil)
		putPages(s, 1, chains[0])
		if _, err := s.PlanECSave("ec", 1, p); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(256 * int64(p.M) * mem.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq := i + 2
			b.StopTimer()
			putPages(s, seq, chains[(i+1)%2])
			b.StartTimer()
			if _, err := s.PlanECSave("ec", seq, p); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Discard("ec", seq-1)
			b.StartTimer()
		}
	})
}

// BenchmarkManifestCodec measures a manifest's encode+decode round trip —
// what every deduplicated save writes and every load, compaction and
// replica adoption reads back.
func BenchmarkManifestCodec(b *testing.B) {
	pod := benchPod(b, 512)
	img, err := Capture(pod, 1, Options{Hashes: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := manifestFromImage(img)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := m.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeManifest(enc); err != nil {
			b.Fatal(err)
		}
	}
}
