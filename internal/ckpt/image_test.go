package ckpt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/zap"
)

// sampleImage builds a small image by hand: two processes with different
// page counts and one with none, so the page tail has several owners.
func sampleImage() *Image {
	img := &Image{PodName: "p", Seq: 7, BaseSeq: 6, Incremental: true, NextVPID: 4,
		Shms: []ShmImage{{ID: 1, Key: 2, Size: 3, Contents: []byte("shm")}}}
	for vpid, pages := range []int{2, 0, 1} {
		p := ProcImage{VPID: vpid + 1, Name: "w", ProgData: []byte{1, 2, 3}}
		p.Memory.Regions = []mem.Region{{Start: 0x10000, Size: 8 * mem.PageSize, Name: "heap"}}
		for i := 0; i < pages; i++ {
			p.Memory.AddPage(uint64(16+i), bytes.Repeat([]byte{byte('a' + 4*vpid + i)}, mem.PageSize))
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

// TestImageCodecRoundTripAliases: Encode leaves the image untouched and
// puts its page bytes behind the head; DecodeImage returns an equal image
// whose pages are the blob's own bytes, each process fenced off from the
// next.
func TestImageCodecRoundTripAliases(t *testing.T) {
	img := sampleImage()
	before := sampleImage()
	blob, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, before) {
		t.Fatal("Encode modified the image")
	}
	if got := int(binary.BigEndian.Uint32(blob[2:])); len(blob) != imageHdrSize+got+int(img.MemoryBytes())-len(img.Shms[0].Contents) {
		t.Fatalf("blob of %d bytes is not header + head (%d) + pages (%d)", len(blob), got, img.MemoryBytes()-3)
	}
	dec, err := DecodeImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A process with no pages decodes PageData as an empty, not nil,
	// slice; compare contents, then the rest of the structure.
	for i := range img.Processes {
		got, want := &dec.Processes[i].Memory, &img.Processes[i].Memory
		if !bytes.Equal(got.PageData, want.PageData) {
			t.Fatalf("process %d page bytes differ", i)
		}
		if len(got.PageData) > 0 && !within(got.PageData, blob) {
			t.Fatalf("process %d pages were copied out of the blob", i)
		}
		if cap(got.PageData) != len(got.PageData) {
			t.Fatalf("process %d pages have spare capacity %d into their neighbour", i, cap(got.PageData)-len(got.PageData))
		}
		got.PageData = want.PageData
	}
	if !reflect.DeepEqual(dec, img) {
		t.Fatalf("decoded image differs:\n got %+v\nwant %+v", dec, img)
	}
}

// TestStoreKeepsOneFormPerImage: after a save, and after a replica adopts
// the transfer, the store's decoded image is a view into its blob — the
// pages exist once per store, not once per form.
func TestStoreKeepsOneFormPerImage(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "one", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 64 * mem.PageSize})
	r.run(20 * sim.Millisecond)
	img := r.stopAndCapture(pod, 1, Options{})
	if _, err := r.store.PlanSave(img); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, who string) {
		t.Helper()
		cached, ok := s.Cached("one", 1)
		if !ok {
			t.Fatalf("%s: no cached image", who)
		}
		pages := cached.Processes[0].Memory.PageData
		if len(pages) == 0 || !bytes.Equal(pages, img.Processes[0].Memory.PageData) {
			t.Fatalf("%s: cached pages differ from the captured ones", who)
		}
		if !within(pages, s.get("one", 1).blob) {
			t.Fatalf("%s: cached image holds its own copy of the pages", who)
		}
		if within(pages, img.Processes[0].Memory.PageData) {
			t.Fatalf("%s: store still references the captured image's pages", who)
		}
	}
	check(r.store, "primary")
	replica := NewStore(r.kernels[0].Disk())
	adopt(t, r, r.store, replica, "one", 1)
	check(replica, "replica")
	if !within(replica.get("one", 1).blob, r.store.get("one", 1).blob) {
		t.Fatal("an in-process transfer should hand the replica the very blob, uncopied")
	}
}
