package ckpt

import (
	"testing"

	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/zap"
)

// benchPod builds a stopped pod whose worker has dirtied a sizeable heap,
// ready for repeated captures.
func benchPod(b *testing.B, pages uint64) *zap.Pod {
	b.Helper()
	engine := sim.NewEngine(99)
	sw := ether.NewSwitch(engine)
	mac := ether.MAC{2, 0, 0, 0, 0, 1}
	nic := ether.NewNIC(engine, "eth0", mac)
	sw.Attach(nic, ether.GigabitLink)
	st := tcpip.NewStack(engine, "node")
	if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, 1}, mac, nic, false); err != nil {
		b.Fatal(err)
	}
	k := kernel.New(engine, "node", kernel.DefaultParams(), st)
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
// steady state of periodic checkpointing, where the pooled encode buffers
// and the page-hash cache should keep per-capture allocations flat.
func BenchmarkCapture(b *testing.B) {
	pod := benchPod(b, 512)
	img, err := Capture(pod, 1, Options{Hashes: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(img.MemoryBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Capture(pod, i+2, Options{Hashes: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures image serialization, the hot half of every
// store write.
func BenchmarkEncode(b *testing.B) {
	pod := benchPod(b, 512)
	img, err := Capture(pod, 1, Options{Hashes: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(img.MemoryBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Encode(); err != nil {
			b.Fatal(err)
		}
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
