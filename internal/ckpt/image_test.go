package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"cruz/internal/ctl"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/zap"
)

// addPage appends page pn to m, referencing data (one whole page) the way
// every image references its pages.
func (m *MemImage) addPage(pn uint64, data []byte) {
	m.PageNums = append(m.PageNums, pn)
	m.pages = append(m.pages, (*[mem.PageSize]byte)(data))
}

// sampleImage builds a small image by hand: two processes with different
// page counts and one with none, so the page tail has several owners.
func sampleImage() *Image {
	img := &Image{PodName: "p", Seq: 7, BaseSeq: 6, Incremental: true, NextVPID: 4,
		Shms: []ShmImage{{ID: 1, Key: 2, Size: 3, Contents: []byte("shm")}}}
	for vpid, pages := range []int{2, 0, 1} {
		p := ProcImage{VPID: vpid + 1, Name: "w", ProgData: []byte{1, 2, 3}}
		p.Memory.Regions = []mem.Region{{Start: 0x10000, Size: 8 * mem.PageSize, Name: "heap"}}
		for i := 0; i < pages; i++ {
			p.Memory.addPage(uint64(16+i), bytes.Repeat([]byte{byte('a' + 4*vpid + i)}, mem.PageSize))
			p.Memory.PageHashes = append(p.Memory.PageHashes, mem.PageHash{Lo: uint64(i), Hi: uint64(vpid)})
		}
		img.Processes = append(img.Processes, p)
	}
	return img
}

// within reports whether b lies inside outer's backing array.
func within(b, outer []byte) bool {
	if len(b) == 0 || len(outer) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&outer[0])), uintptr(unsafe.Pointer(&outer[len(outer)-1]))
	p := uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p+uintptr(len(b))-1 <= hi
}

// pagesWithin reports whether every page of img lies inside blob.
func pagesWithin(img *Image, blob []byte) bool {
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		for j := 0; j < m.NumPages(); j++ {
			if !within(m.Page(j), blob) {
				return false
			}
		}
	}
	return true
}

// imageArrays lists the arrays img's pages are, in encoding order.
func imageArrays(img *Image) []*[mem.PageSize]byte {
	var out []*[mem.PageSize]byte
	for i := range img.Processes {
		out = append(out, img.Processes[i].Memory.pages...)
	}
	return out
}

// readParts reads an image from parts, as a receiver does from the
// pieces a frame arrived in.
func readParts(parts [][]byte) (*Image, error) {
	r := ctl.NewPieceReader(parts)
	return ReadImage(&r, r.Len())
}

// TestImageCodecRoundTripAliases: an image's encoding is its head, built
// once, then its own page arrays, uncopied; Encode joins them afresh.
// DecodeImage returns an equal image whose head and pages are the blob's
// own bytes, in order, and ReadImage over the parts returns one whose
// pages are the very arrays sent.
func TestImageCodecRoundTripAliases(t *testing.T) {
	img := sampleImage()
	parts, err := img.AppendParts(nil)
	if err != nil {
		t.Fatal(err)
	}
	arrays := imageArrays(img)
	if len(parts) != 1+len(arrays) {
		t.Fatalf("%d parts, want the head and %d pages", len(parts), len(arrays))
	}
	for i, a := range arrays {
		if unsafe.SliceData(parts[1+i]) != &a[0] {
			t.Fatalf("part %d is not the image's page array", 1+i)
		}
	}
	if again, err := img.AppendParts(nil); err != nil || unsafe.SliceData(again[0]) != unsafe.SliceData(parts[0]) {
		t.Fatalf("a second AppendParts built a new head (%v)", err)
	}
	blob, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	size, err := img.Size()
	if err != nil || size != int64(len(blob)) || !bytes.Equal(blob, bytes.Join(parts, nil)) {
		t.Fatalf("Size %d (%v) and Encode's %d bytes are not the parts joined", size, err, len(blob))
	}
	if got := int(binary.BigEndian.Uint32(blob[2:])); len(blob) != imageHdrSize+got+int(img.MemoryBytes())-len(img.Shms[0].Contents) {
		t.Fatalf("blob of %d bytes is not header + head (%d) + pages (%d)", len(blob), got, img.MemoryBytes()-3)
	}
	if again, err := img.Encode(); err != nil || unsafe.SliceData(again) == unsafe.SliceData(blob) {
		t.Fatalf("a second Encode returned the first one's bytes (%v), want a fresh join", err)
	}
	dec, err := DecodeImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	next := len(blob) - 3*mem.PageSize
	for i, a := range imageArrays(dec) {
		if &a[0] != &blob[next] {
			t.Fatalf("page %d is not the blob's page at offset %d", i, next)
		}
		next += mem.PageSize
	}
	if head, err := dec.AppendParts(nil); err != nil || unsafe.SliceData(head[0]) != &blob[0] || cap(head[0]) != len(head[0]) {
		t.Fatalf("a decoded image's head is not the blob's own, capped (%v)", err)
	}
	if !reflect.DeepEqual(dec, img) {
		t.Fatalf("decoded image differs:\n got %+v\nwant %+v", dec, img)
	}
	got, err := readParts(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(imageArrays(got), arrays) {
		t.Fatal("an image read from the parts does not hold the arrays sent")
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatalf("image read from parts differs:\n got %+v\nwant %+v", got, img)
	}
}

// TestEncodingsMatchGoldenDigests pins the encoded bytes of sampleImage
// and its manifest, so the gob field set of Image, ProcImage, MemImage
// and Manifest — every head written to a store or the wire — cannot
// drift. The digests predate images referencing their pages. gob numbers
// types in the order a process first meets them, which the tests run
// before this one would change, so the test re-runs itself alone in a
// fresh process and checks the bytes there.
func TestEncodingsMatchGoldenDigests(t *testing.T) {
	if os.Getenv("CKPT_GOLDEN_FRESH") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestEncodingsMatchGoldenDigests$", "-test.count=1")
		cmd.Env = append(os.Environ(), "CKPT_GOLDEN_FRESH=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("in a fresh process: %v\n%s", err, out)
		}
		return
	}
	blob, err := sampleImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	mblob, err := sampleManifest(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		b    []byte
		size int
		want string
	}{
		"image":    {blob, 14054, "06bb97cacd60cd1ff471f4e4b9c0358a9b70ac096ba73c77a865fef521fd8577"},
		"manifest": {mblob, 1712, "929b6c81c1bd89db559844a80b89d258758841da1dd09cac019a0c131bc2a92d"},
	} {
		if sum := sha256.Sum256(c.b); len(c.b) != c.size || hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("%s encodes to %d bytes, sha256 %x; want %d bytes, %s", name, len(c.b), sum, c.size, c.want)
		}
	}
}

// TestStoreKeepsOneFormPerImage: a saved blob-form image is the captured
// one, and its pages are the pod's arrays, frozen where they stood. A
// replica adopting it — in process, or through its parts read back as a
// receiver reads a frame's pieces — holds the very same arrays.
func TestStoreKeepsOneFormPerImage(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "one", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 64 * mem.PageSize})
	r.run(20 * sim.Millisecond)
	img := r.stopAndCapture(pod, 1, Options{})
	as := pod.Process(1).Mem()
	var captured []*[mem.PageSize]byte
	for _, pn := range as.PageNumbers(false) {
		captured = append(captured, (*[mem.PageSize]byte)(as.PageData(pn)))
	}
	if len(captured) == 0 || !slices.Equal(imageArrays(img), captured) {
		t.Fatal("the capture does not hold the pod's own page arrays")
	}
	if _, err := r.store.PlanSave(img); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, who string) *Image {
		t.Helper()
		cached, ok := s.Cached("one", 1)
		if !ok {
			t.Fatalf("%s: no cached image", who)
		}
		if !slices.Equal(imageArrays(cached), captured) {
			t.Fatalf("%s: the stored image does not hold the captured arrays", who)
		}
		return cached
	}
	if check(r.store, "primary") != img {
		t.Fatal("primary: the store keeps an image of its own instead of the saved one")
	}
	replica := NewStore(r.kernels[0].Disk())
	adopt(t, r, r.store, replica, "one", 1)
	check(replica, "replica")

	tx, err := r.store.BuildTransfer("one", 1, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := tx.Images[0].AppendParts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Images[0], err = readParts(parts); err != nil {
		t.Fatal(err)
	}
	wire := NewStore(r.kernels[0].Disk())
	wire.Adopt(tx, func(_ int64, err error) {
		if err != nil {
			t.Error(err)
		}
	})
	r.run(sim.Second)
	if check(wire, "replica over the wire") == img {
		t.Fatal("replica over the wire: the test adopted the sender's image, not one read from its parts")
	}
}

// overwriteAll writes a byte pattern over every materialised page of
// every process of pod.
func overwriteAll(t *testing.T, pod *zap.Pod) {
	t.Helper()
	junk := bytes.Repeat([]byte{0xEE}, mem.PageSize)
	for _, vpid := range pod.VPIDs() {
		as := pod.Process(vpid).Mem()
		for _, pn := range as.PageNumbers(false) {
			if err := as.Write(pn*mem.PageSize, junk); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// spacePages copies every materialised page of as.
func spacePages(as *mem.AddressSpace) map[uint64][]byte {
	out := make(map[uint64][]byte)
	for _, pn := range as.PageNumbers(false) {
		out[pn] = bytes.Clone(as.PageData(pn))
	}
	return out
}

// imagePages copies every page the image holds for vpid 1.
func imagePages(img *Image) map[uint64][]byte {
	m := &img.Processes[0].Memory
	out := make(map[uint64][]byte)
	for j, pn := range m.PageNums {
		out[pn] = bytes.Clone(m.Page(j))
	}
	return out
}

// partsDigest hashes img's encoding, read from its parts.
func partsDigest(t *testing.T, img *Image) [sha256.Size]byte {
	t.Helper()
	parts, err := img.AppendParts(nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestCapturedImageOutlivesThePod: once Capture (or CaptureLive, after
// Release) returns, no write of the pod reaches the image. After the pod
// resumes, overwrites every page and is destroyed, the image's pages —
// and, for a stopped capture, what it restores to — are still the pod as
// it stood at the capture, and its encoding, read from its parts, hashes
// to what it did then. Every capture holds the pod's own arrays, frozen
// there, so that the pod copies a page before writing it: a blob-form one,
// checked as the store holds it after PlanSave, and a hashed one without
// a store. A hashed capture against a store holding an earlier checkpoint
// of the pod references the chunks of its unchanged pages instead; its
// image outlives those chunks too, once the store has freed them. (A live
// round carries memory alone and is not restorable by itself.)
func TestCapturedImageOutlivesThePod(t *testing.T) {
	for _, live := range []bool{false, true} {
		for _, form := range []string{"blob", "hashed", "dedup"} {
			r := newRig(t, 2)
			pod, _ := zap.New(r.kernels[0], "gone", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
			pod.Spawn("w", &memWorker{HeapSize: 64 * mem.PageSize})
			r.run(20 * sim.Millisecond)
			opts := Options{Hashes: form != "blob"}
			dedup := form == "dedup"
			if dedup {
				r.saveDeduped(r.store, r.stopAndCapture(pod, 1, opts))
				pod.Resume()
				r.run(5 * sim.Millisecond)
				opts.Store = r.store
			}
			var img *Image
			var want map[uint64][]byte
			if live {
				want = spacePages(pod.Process(1).Mem())
				lc, err := CaptureLive(pod, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				lc.Release()
				img = lc.Image
			} else {
				img = r.stopAndCapture(pod, 2, opts)
				want = spacePages(pod.Process(1).Mem())
				pod.Resume()
			}
			if held := chunkPages(img, r.store); dedup && (held == 0 || held == len(want)) {
				t.Fatalf("live=%v: %d of %d pages reference the store's chunks, want some and not all", live, held, len(want))
			}
			if form == "blob" {
				if _, err := r.store.PlanSave(img); err != nil {
					t.Fatal(err)
				}
				img, _ = r.store.Cached("gone", 2)
			}
			before := partsDigest(t, img)

			r.run(20 * sim.Millisecond)
			overwriteAll(t, pod)
			pod.Destroy()
			r.store.Discard("gone", 1)
			if n := r.store.ChunkCount(); n != 0 {
				t.Fatalf("the store still holds %d chunks", n)
			}
			runtime.GC()

			if got := imagePages(img); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("live=%v %s: %d pages of the image differ from the %d captured", live, form, len(got), len(want))
			}
			if partsDigest(t, img) != before {
				t.Fatalf("live=%v %s: the image's encoding changed after its pod was overwritten and destroyed", live, form)
			}
			if !live {
				restored, err := Restore(r.kernels[1], img)
				if err != nil {
					t.Fatal(err)
				}
				if got := spacePages(restored.Process(1).Mem()); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d pages restored differ from the %d captured", form, len(got), len(want))
				}
			}
			blob, err := img.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeImage(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got := imagePages(dec); !reflect.DeepEqual(got, want) {
				t.Fatalf("live=%v %s: %d pages decoded differ from the %d captured", live, form, len(got), len(want))
			}
		}
	}
}

// chunkPages counts the pages of img that are the bytes of a chunk s holds.
func chunkPages(img *Image, s *Store) int {
	n := 0
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		for j, h := range m.PageHashes {
			if d := s.chunkData(h); d != nil && &d[0] == &m.Page(j)[0] {
				n++
			}
		}
	}
	return n
}

// raceBuild is set when the race detector instruments the test binary.
var raceBuild bool

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPageBytesCrossOnce: no capture copies a page. A blob-form capture,
// its save and a read of it from its parts, as a replica receives it,
// allocate lists and heads, not pages; a hashed capture, with or without
// a store holding the previous checkpoint, freezes the pages it keeps
// instead of copying them; and the two ways an image is assembled from
// others — Merge and a deduplicated load — allocate page lists, not
// pages. (The benchmark's ckpt.page_alloc_ratio times Encode, a fresh
// join, and reads about 1.)
func TestPageBytesCrossOnce(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "once", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 512 * mem.PageSize})
	r.run(600 * sim.Millisecond)
	full := r.stopAndCapture(pod, 1, Options{Hashes: true})
	pageBytes := float64(full.MemoryBytes())
	if full.Processes[0].Memory.NumPages() < 256 {
		t.Fatalf("worker materialised only %d pages", full.Processes[0].Memory.NumPages())
	}
	pod.Resume()
	r.run(5 * sim.Millisecond)
	inc := r.stopAndCapture(pod, 2, Options{Hashes: true, Incremental: true})
	written := float64(inc.MemoryBytes()) / pageBytes
	t.Logf("%.4f× the page bytes written between the captures", written)
	if written == 0 || written > 0.25 {
		t.Fatalf("the worker wrote %.2f× the page bytes between the captures, want some and at most a quarter", written)
	}

	r.saveDeduped(r.store, full)
	m := r.store.get("once", 1).manifest
	// The list of parts is the wire frame's, 24 B a page wherever it is
	// built; the rounds reuse one, as they reuse the codecs.
	blobs, parts := NewStore(nil), [][]byte(nil)
	for _, c := range []struct {
		what string
		max  float64
		fn   func() error
	}{
		{"Capture + PlanSave", 0.01, func() error {
			img, err := Capture(pod, 3, Options{})
			if err == nil {
				_, err = blobs.PlanSave(img)
			}
			return err
		}},
		{"ReadImage from its parts", 0.01, func() error {
			img, _ := blobs.Cached("once", 3)
			var err error
			if parts, err = img.AppendParts(parts[:0]); err == nil {
				_, err = readParts(parts)
			}
			return err
		}},
		{"hashed Capture", 0.01, func() error {
			_, err := Capture(pod, 3, Options{Hashes: true})
			return err
		}},
		{"Capture against the store", 0.01, func() error {
			_, err := Capture(pod, 3, Options{Hashes: true, Store: r.store})
			return err
		}},
		{"Merge", 0.01, func() error { _, err := Merge(full, inc); return err }},
		{"imageFromManifest", 0.01, func() error { _, err := imageFromManifest(m, r.store.chunkData); return err }},
	} {
		var err error
		var got float64
		for rep := 0; rep < 3; rep++ { // the first round warms the codecs
			got = float64(allocated(func() { err = c.fn() })) / pageBytes
		}
		t.Logf("%s: %.4f× the page bytes", c.what, got)
		if err != nil || got > c.max {
			t.Errorf("%s allocates %.4f× the page bytes (%v), want at most %.4f×", c.what, got, err, c.max)
		}
	}
}
