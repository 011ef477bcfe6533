package ckpt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"cruz/internal/gobmemo/gobmemotest"
	"cruz/internal/mem"
)

// readGobUint decodes one gob unsigned integer (appendUint), returning
// the value and its width.
func readGobUint(b []byte) (uint64, int) {
	if b[0] < 128 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}

// reframe wraps head in the image header and appends pages.
func reframe(head, pages []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, imageMagic)
	b = binary.BigEndian.AppendUint32(b, uint32(len(head)))
	return append(append(b, head...), pages...)
}

// hostileImages returns encoded images damaged in the ways a decoder
// that slices instead of copying must survive, keyed by what is wrong
// with each. Every one must make DecodeImage return an error.
func hostileImages(t testing.TB) map[string][]byte {
	img := sampleImage()
	blob, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	headLen := int(binary.BigEndian.Uint32(blob[2:]))
	pages := blob[imageHdrSize+headLen:]
	withHeadLen := func(n uint32) []byte {
		b := append([]byte(nil), blob...)
		binary.BigEndian.PutUint32(b[2:], n)
		return b
	}
	out := map[string][]byte{
		"empty":             {},
		"header-only":       blob[:imageHdrSize],
		"bad-magic":         append([]byte{0, 0}, blob[2:]...),
		"truncated-head":    blob[:imageHdrSize+headLen/2],
		"truncated-tail":    blob[:len(blob)-mem.PageSize/2],
		"missing-tail":      blob[:imageHdrSize+headLen],
		"one-page-short":    blob[:len(blob)-mem.PageSize],
		"one-page-over":     append(append([]byte(nil), blob...), make([]byte, mem.PageSize)...),
		"zero-length-head":  reframe(nil, pages),
		"head-overruns":     withHeadLen(uint32(len(blob))),
		"head-is-max-u32":   withHeadLen(1<<32 - 1),
		"garbage-head":      reframe(bytes.Repeat([]byte{0xff}, 64), pages),
		"pages-inside-head": nil, // filled below
		"claims-2^31-pages": nil, // filled below
		"pages-descending":  nil, // filled below
	}

	// A head that carries page bytes in PageData, a field an encoder always
	// leaves empty.
	inside := sampleImage()
	for i := range inside.Processes {
		m := &inside.Processes[i].Memory
		for j := 0; j < m.NumPages(); j++ {
			m.PageData = append(m.PageData, m.Page(j)...)
		}
	}
	whole, err := memoEncode(imageCodec, inside)
	if err != nil {
		t.Fatal(err)
	}
	out["pages-inside-head"] = reframe(whole, pages)

	// A process listing its pages out of order, which a merge would fold
	// wrongly: otherwise a well-formed blob.
	swapped := sampleImage()
	pns := swapped.Processes[0].Memory.PageNums
	pns[0], pns[1] = pns[1], pns[0]
	if out["pages-descending"], err = swapped.Encode(); err != nil {
		t.Fatal(err)
	}

	// A head whose first process claims 2^31 pages. PageNums is a gob
	// slice: a count, then the elements. Give the elements a findable
	// shape, overwrite the count, and fix the length of the gob message
	// (the stream's last) that contains it.
	marked := sampleImage()
	for i := range marked.Processes[0].Memory.PageNums {
		marked.Processes[0].Memory.PageNums[i] = 0x1122334455667788
	}
	mblob, err := marked.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mhead := mblob[imageHdrSize : imageHdrSize+int(binary.BigEndian.Uint32(mblob[2:]))]
	elem := appendUint(nil, 0x1122334455667788)
	at := bytes.Index(mhead, append([]byte{2}, elem...))
	if at < 0 {
		t.Fatal("PageNums not found in the gob head")
	}
	msg := 0 // offset of the last gob message
	for {
		n, w := readGobUint(mhead[msg:])
		if msg+w+int(n) == len(mhead) {
			break
		}
		msg += w + int(n)
	}
	n, w := readGobUint(mhead[msg:])
	count := appendUint(nil, 1<<31)
	var patched []byte
	patched = append(patched, mhead[:msg]...)
	patched = appendUint(patched, n+uint64(len(count)-1))
	patched = append(patched, mhead[msg+w:at]...)
	patched = append(patched, count...)
	patched = append(patched, mhead[at+1:]...)
	out["claims-2^31-pages"] = reframe(patched, pages)
	return out
}

// TestDecodeImageRejectsHostileBlobs: each damaged blob is an error, and
// none of them — the one claiming 8 TiB of pages included — makes the
// decoder allocate in proportion to what the blob claims.
func TestDecodeImageRejectsHostileBlobs(t *testing.T) {
	for name, blob := range hostileImages(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err := DecodeImage(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, img)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte blob", name, grew, len(blob))
		}
	}
}

// TestDecodersRejectPagesOutOfOrder: Merge and mergeManifests fold two
// page lists in one pass that relies on each ascending strictly, so both
// decoders refuse a process whose pages descend or repeat — bytes off the
// wire are the one producer that could hand them such a list.
func TestDecodersRejectPagesOutOfOrder(t *testing.T) {
	for name, pns := range map[string][]uint64{"descending": {17, 16}, "repeated": {16, 16}} {
		img := sampleImage()
		copy(img.Processes[0].Memory.PageNums, pns)
		blob, err := img.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeImage(blob); err == nil {
			t.Errorf("DecodeImage accepted %s pages", name)
		}
		m, err := manifestFromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		mblob, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(mblob); err == nil {
			t.Errorf("DecodeManifest accepted %s pages", name)
		}
	}
}

// cutPieces splits b into pieces: each byte of cuts is the length of the
// next piece, modulo what is left, so empty pieces occur too, and the
// rest is the last piece.
func cutPieces(b, cuts []byte) [][]byte {
	var pieces [][]byte
	for _, c := range cuts {
		k := int(c) % (len(b) + 1)
		pieces, b = append(pieces, b[:k]), b[k:]
	}
	return append(pieces, b)
}

// FuzzDecodeImage: arbitrary bytes, split into pieces anywhere, produce
// an image or an error, never a panic, and the split changes nothing:
// ReadImage over the pieces decodes exactly as DecodeImage does over the
// whole, and a page is the capped sub-slice of its piece exactly when it
// lies whole in one. A decoded image is internally consistent — every
// process owns exactly its pages, in ascending order, inside the blob —
// and re-encodes. Whatever they were, a good blob decodes after them as
// it always did: the head decoder is shared.
func FuzzDecodeImage(f *testing.F) {
	valid, err := sampleImage().Encode()
	if err != nil {
		f.Fatal(err)
	}
	want, err := DecodeImage(valid)
	if err != nil {
		f.Fatal(err)
	}
	cuts := func(i int) []byte { return []byte{byte(37*i + 5), byte(11*i + 200), 0, byte(i)} }
	f.Add(valid, cuts(0))
	f.Add(valid, []byte{})
	for name, blob := range hostileImages(f) {
		f.Add(blob, cuts(len(name)))
	}
	for i, in := range gobmemotest.Inputs(f, sampleImage()) {
		f.Add(reframe(in.Bytes, valid[len(valid)-3*mem.PageSize:]), cuts(i+1))
	}
	f.Fuzz(func(t *testing.T, blob, cuts []byte) {
		pieces := cutPieces(blob, cuts)
		img, err := DecodeImage(blob)
		split, errSplit := readParts(pieces)
		if good, gerr := DecodeImage(valid); gerr != nil || !reflect.DeepEqual(good, want) {
			t.Fatalf("a good blob decodes to %+v, %v", good, gerr)
		}
		if (err == nil) != (errSplit == nil) {
			t.Fatalf("the whole blob decodes with %v, its %d pieces with %v", err, len(pieces), errSplit)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(img, split) {
			t.Fatalf("%d pieces decode to\n%+v, the whole blob to\n%+v", len(pieces), split, img)
		}
		if !pagesWithin(img, blob) {
			t.Fatal("a decoded page lies outside the blob")
		}
		wholePages, splitPages := imageArrays(img), imageArrays(split)
		for i, a := range wholePages {
			off := int(uintptr(unsafe.Pointer(&a[0])) - uintptr(unsafe.Pointer(&blob[0])))
			start, inOne := 0, false
			for _, p := range pieces {
				if off >= start && off < start+len(p) {
					inOne = off+mem.PageSize <= start+len(p)
					break
				}
				start += len(p)
			}
			if aliases := splitPages[i] == a; aliases != inOne {
				t.Fatalf("page %d (at %d) lies whole in one piece: %v; aliases it: %v", i, off, inOne, aliases)
			}
		}
		for i := range img.Processes {
			if pns := img.Processes[i].Memory.PageNums; !ascending(pns, pageNum) {
				t.Fatalf("process %d: pages %v out of order", i, pns)
			}
		}
		fresh := *img // encoded anew, not returned as the blob
		fresh.head, fresh.Processes = nil, slices.Clone(img.Processes)
		if _, err := fresh.Encode(); err != nil {
			t.Fatalf("decoded image does not re-encode: %v", err)
		}
	})
}

// fuzzDecoder is the body of FuzzDecodeManifest and FuzzDecodeECSet:
// arbitrary bytes decode to a value or an error, never a panic; a decoded
// value re-encodes — when exact, to the very bytes it was decoded from;
// and the good encoding decodes after them to what it always did, the
// decoder being shared by every store in the process. The seeds — good's
// encoding and gobmemotest's damaged and hostile variations of it — are
// also checked in under testdata/fuzz.
func fuzzDecoder[T any](f *testing.F, good *T, encode func(*T) ([]byte, error), decode func([]byte) (*T, error), exact bool) {
	valid, err := encode(good)
	if err != nil {
		f.Fatal(err)
	}
	want, err := decode(valid)
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range gobmemotest.Inputs(f, good) {
		f.Add(in.Bytes)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decode(b)
		if after, aerr := decode(valid); aerr != nil || !reflect.DeepEqual(after, want) {
			t.Fatalf("the good encoding decodes to %+v, %v", after, aerr)
		}
		if err != nil {
			return
		}
		again, err := encode(v)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		if exact && !bytes.Equal(again, b) {
			t.Fatalf("decoded value re-encodes to %d other bytes than its %d", len(again), len(b))
		}
	})
}

// FuzzDecodeManifest: the manifest is read by a walk that takes only what
// gob.Encoder writes, so a manifest it accepts re-encodes exactly.
func FuzzDecodeManifest(f *testing.F) {
	fuzzDecoder(f, sampleManifest(f), (*Manifest).Encode, DecodeManifest, true)
}

func FuzzDecodeECSet(f *testing.F) {
	for _, set := range hostileECSets() {
		b, err := set.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	fuzzDecoder(f, sampleECSet(), (*ECSet).Encode, DecodeECSet, true)
}
