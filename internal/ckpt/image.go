// Package ckpt implements single-pod checkpoint and restart: capturing a
// stopped pod's complete state — program state ("CPU registers"), virtual
// memory, file descriptors including live TCP connections with their
// buffer contents, pipes, System-V IPC, pending signals, and the pod's
// network identity — into a serializable image, and reconstructing a
// running pod from such an image on any node (§3, §4 of the paper).
//
// The checkpoint is non-destructive: after Capture the pod can simply be
// resumed. Restore creates brand-new kernel objects (new physical pids,
// new socket structures); the Zap virtualization layer masks every
// identifier change from the application.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cruz/internal/ctl"
	"cruz/internal/ether"
	"cruz/internal/gobmemo"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// encStage is the pooled staging of the capture path's encodings: gob
// writes a head into buf (image heads, manifests, shard sets). Only small
// structured state goes through gob — page bytes never do — so the buffer
// stays a few KB; checkpoints are taken repeatedly over a pod's life, and
// reusing the grown buffer avoids re-paying its growth on every capture.
type encStage struct {
	buf bytes.Buffer
}

var encStages = sync.Pool{New: func() any { return new(encStage) }}

// stage returns an empty pooled stage; the caller puts it back.
func stage() *encStage {
	st := encStages.Get().(*encStage)
	st.buf.Reset()
	return st
}

// The statically typed encodings — image heads, manifests, shard sets —
// go through one memoised codec each: gob's type descriptors are built
// once per process, and the bytes are those of a fresh encoder.
var (
	imageCodec    = gobmemo.New[Image]()
	manifestCodec = gobmemo.New[Manifest]()
	ecSetCodec    = gobmemo.New[ECSet]()
)

// memoEncode returns v's encoding by its memoised codec, staged in a
// pooled buffer and copied out once, into an allocation that append does
// not zero-fill.
func memoEncode[T any](c *gobmemo.Codec[T], v *T) ([]byte, error) {
	st := stage()
	defer encStages.Put(st)
	if err := c.Encode(&st.buf, v); err != nil {
		return nil, err
	}
	return append([]byte(nil), st.buf.Bytes()...), nil
}

// MemImage is a saved address space: its regions, and its pages by number,
// referenced rather than held (see Image for who owns the bytes).
type MemImage struct {
	Regions  []mem.Region
	PageNums []uint64
	// PageData is always empty (DecodeImage rejects a filled one). It stays
	// because gob writes every field name into the head it would resize.
	PageData []byte
	// PageHashes, when present (Options.Hashes), holds the content hash
	// of each stored page, parallel to PageNums. It is what lets a store
	// deduplicate pages without re-reading their contents.
	PageHashes []mem.PageHash
	pages      []*[mem.PageSize]byte // pages[i] holds page PageNums[i]
	// gen is the generation the capture cut in the live space, kept the
	// dirty base it found there (Keep, Rewind); a decoded image has none.
	gen, kept uint64
}

// Page returns the contents of the i-th stored page.
func (m *MemImage) Page(i int) []byte { return m.pages[i][:] }

// NumPages returns the stored page count.
func (m *MemImage) NumPages() int { return len(m.PageNums) }

// UDPImage is a saved UDP socket.
type UDPImage struct {
	Local     tcpip.AddrPort
	Broadcast bool
	Queue     []tcpip.UDPMessage
}

// FDImage is one saved descriptor-table slot. Exactly one of the payload
// fields is set, per Kind.
type FDImage struct {
	Num  int
	Kind kernel.FDKind

	Conn     *tcpip.TCPSavedState
	Listener *tcpip.TCPListenerState
	UDP      *UDPImage
	PipeID   int // for FDPipeRead / FDPipeWrite
}

// PipeImage is one saved pipe (topology entries in FDImage refer to ID).
type PipeImage struct {
	ID     int
	Buffer []byte
}

// ProcImage is one saved process.
type ProcImage struct {
	VPID     int
	Name     string
	ProgData []byte // gob-encoded progHolder (program.go)
	Memory   MemImage
	FDs      []FDImage
	Signals  []kernel.Signal
	CPUTime  sim.Duration
}

// ShmImage is one saved shared-memory segment.
type ShmImage struct {
	ID, Key, Size int
	Contents      []byte
}

// SemImage is one saved semaphore.
type SemImage struct {
	ID, Key, Value int
}

// NetImage is the pod's saved network identity.
type NetImage struct {
	IP      tcpip.Addr
	MAC     ether.MAC
	FakeMAC ether.MAC
	// SharedMAC records the no-multi-MAC mode; on restore at a new node
	// the VIF then adopts that node's physical MAC and relies on
	// gratuitous ARP (§4.2's alternate solution).
	SharedMAC bool
}

// Image is a complete pod checkpoint, immutable once built: images share
// page bytes freely, and the head of its encoding is built once and kept.
// The pages belong to the images it was merged from, to store chunks, to
// the pieces a received encoding arrived in, or, after a capture or a
// restore, to an address space that holds the same array frozen. Nobody
// writes a page an image holds: a space copies a frozen array before its
// next write to that page.
type Image struct {
	PodName string
	Seq     int // checkpoint sequence number, monotonically increasing
	BaseSeq int // for incremental images: the Seq this delta applies to
	// Incremental marks an image holding only pages dirtied since
	// BaseSeq (plus full kernel state, which is small).
	Incremental bool
	TakenAt     sim.Time
	// FreshHashes counts the pages whose content hash had to be computed
	// during this capture (cache misses); pages untouched since the last
	// hashing capture reuse their cached hash for free. Agents use this
	// to charge hashing CPU time proportional to fresh bytes only.
	FreshHashes int

	Net       NetImage
	NextVPID  int
	Processes []ProcImage
	Shms      []ShmImage
	Sems      []SemImage
	Pipes     []PipeImage

	head []byte // magic ‖ headLen ‖ gob head, once built
}

// An encoded image is a small gob head followed by the raw page bytes:
//
//	magic(2) ‖ headLen(4, big-endian) ‖ head ‖ pages
//
// head is the gob encoding of the Image, which holds no page bytes;
// pages is every process's pages back to back, in process and page
// order. The head's PageNums are the length table: process i owns the
// next len(PageNums)·PageSize bytes, and the tail must hold exactly
// their sum. An image holds its encoding as the pieces it is made of —
// the head, then each page's array — so no page is copied to encode one:
// a store keeps the image, and the wire carries its parts by reference.
const (
	imageMagic   = 0xC7A1
	imageHdrSize = 2 + 4
)

// buildHead encodes the image's head, the first time it is asked for.
func (img *Image) buildHead() error {
	if img.head != nil {
		return nil
	}
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		if len(m.pages) != m.NumPages() || len(m.PageData) != 0 {
			return fmt.Errorf("ckpt: encode image %s/%d: vpid %d references %d pages for %d page numbers",
				img.PodName, img.Seq, img.Processes[i].VPID, len(m.pages), m.NumPages())
		}
	}
	st := stage()
	defer encStages.Put(st)
	var hdr [imageHdrSize]byte
	st.buf.Write(hdr[:])
	if err := imageCodec.Encode(&st.buf, img); err != nil {
		return fmt.Errorf("ckpt: encode image: %w", err)
	}
	head := append([]byte(nil), st.buf.Bytes()...)
	binary.BigEndian.PutUint16(head, imageMagic)
	binary.BigEndian.PutUint32(head[2:], uint32(len(head)-imageHdrSize))
	img.head = head
	return nil
}

// Size returns the length of the image's encoding: what a store writes
// to disk and reads back, and what the wire carries.
func (img *Image) Size() (int64, error) {
	if err := img.buildHead(); err != nil {
		return 0, err
	}
	n := int64(len(img.head))
	for i := range img.Processes {
		n += int64(img.Processes[i].Memory.NumPages()) * mem.PageSize
	}
	return n, nil
}

// AppendParts appends the image's encoding to parts as the pieces it is
// held in — the head, then every page's array — and returns the list.
// The pieces are the image's own and never change, so a sender may hand
// them to the wire by reference.
func (img *Image) AppendParts(parts [][]byte) ([][]byte, error) {
	if err := img.buildHead(); err != nil {
		return parts, err
	}
	parts = append(parts, img.head)
	for i := range img.Processes {
		for _, p := range img.Processes[i].Memory.pages {
			parts = append(parts, p[:])
		}
	}
	return parts, nil
}

// Encode returns the image's encoding as one contiguous copy, its parts
// joined in a fresh allocation that is not zero-filled (bytes.Join
// allocates through internal/bytealg.MakeNoZero). Nothing on the
// checkpoint path needs one; it is for callers that want the bytes whole.
func (img *Image) Encode() ([]byte, error) {
	parts, err := img.AppendParts(nil)
	if err != nil {
		return nil, err
	}
	return bytes.Join(parts, nil), nil
}

// DecodeImage parses an encoded image held in one piece, b, which the
// caller must leave unmodified for as long as the image lives: the
// image's head and pages are b's bytes.
func DecodeImage(b []byte) (*Image, error) {
	r := ctl.NewPieceReader([][]byte{b})
	return ReadImage(&r, len(b))
}

// ReadImage parses the encoded image that is the next n bytes of r
// (n <= r.Len()), reading exactly them. Its head, and each page that lies
// whole in one of r's pieces, is a sub-slice of that piece, which the
// caller must leave unmodified for as long as the image lives; only what
// spans pieces is copied. A received image thus holds the sender's arrays.
func ReadImage(r *ctl.PieceReader, n int) (*Image, error) {
	var hdr []byte
	if n >= imageHdrSize {
		hdr = r.Peek(imageHdrSize)
	}
	if len(hdr) < imageHdrSize || binary.BigEndian.Uint16(hdr) != imageMagic {
		return nil, errors.New("ckpt: decode image: not an encoded image")
	}
	headLen := uint64(binary.BigEndian.Uint32(hdr[2:]))
	if headLen == 0 || headLen > uint64(n-imageHdrSize) {
		return nil, fmt.Errorf("ckpt: decode image: head of %d bytes in a %d-byte blob", headLen, n)
	}
	head := r.Next(imageHdrSize + int(headLen))
	var img Image
	if _, err := imageCodec.Decode(head[imageHdrSize:], &img); err != nil {
		return nil, fmt.Errorf("ckpt: decode image: %w", err)
	}
	var want uint64
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		if len(m.PageData) != 0 {
			return nil, errors.New("ckpt: decode image: page bytes inside the head")
		}
		if !ascending(m.PageNums, pageNum) {
			return nil, fmt.Errorf("ckpt: decode image: vpid %d lists its pages out of order", img.Processes[i].VPID)
		}
		want += uint64(m.NumPages()) * mem.PageSize
	}
	if pages := uint64(n - len(head)); want != pages {
		return nil, fmt.Errorf("ckpt: decode image: %d bytes follow a head that lists %d bytes of pages", pages, want)
	}
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		if m.NumPages() > 0 {
			m.pages = make([]*[mem.PageSize]byte, m.NumPages())
		}
		for j := range m.pages {
			m.pages[j] = (*[mem.PageSize]byte)(r.Next(mem.PageSize))
		}
	}
	img.head = head
	return &img, nil
}

// MemoryBytes returns the total page payload in the image — the dominant
// component of checkpoint size and hence of checkpoint latency (§6).
func (img *Image) MemoryBytes() int64 {
	var n int64
	for i := range img.Processes {
		n += int64(img.Processes[i].Memory.NumPages()) * mem.PageSize
	}
	for _, s := range img.Shms {
		n += int64(len(s.Contents))
	}
	return n
}

// Merge applies an incremental image on top of a (merged) base, producing
// a self-contained image equivalent to a full checkpoint at the
// increment's time. Kernel state (sockets, fds, signals, IPC values)
// comes wholly from the increment; only memory pages merge, by reference.
func Merge(base, inc *Image) (*Image, error) {
	if !inc.Incremental {
		return inc, nil
	}
	if base == nil || base.PodName != inc.PodName || inc.BaseSeq != base.Seq {
		return nil, fmt.Errorf("ckpt: increment %s/%d does not apply to base %v",
			inc.PodName, inc.Seq, base)
	}
	out := *inc
	out.Incremental = false
	out.BaseSeq = 0
	out.head = nil
	out.Processes = make([]ProcImage, len(inc.Processes))
	for i, p := range inc.Processes {
		if j := slices.IndexFunc(base.Processes, func(b ProcImage) bool { return b.VPID == p.VPID }); j >= 0 {
			p.Memory = mergeMemory(&base.Processes[j].Memory, &p.Memory)
		}
		out.Processes[i] = p
	}
	return &out, nil
}

// mergeMemory lays inc's pages over base's. Hashes survive only when both
// sides carry them.
func mergeMemory(base, inc *MemImage) MemImage {
	withHashes := len(base.PageHashes) == base.NumPages() && len(inc.PageHashes) == inc.NumPages()
	n := mergeAscending(base.PageNums, inc.PageNums, pageNum, func(int, int) {})
	m := MemImage{Regions: inc.Regions, PageNums: make([]uint64, 0, n), pages: make([]*[mem.PageSize]byte, 0, n)}
	if withHashes {
		m.PageHashes = make([]mem.PageHash, 0, n)
	}
	srcs := [2]*MemImage{base, inc}
	mergeAscending(base.PageNums, inc.PageNums, pageNum, func(from, i int) {
		m.PageNums = append(m.PageNums, srcs[from].PageNums[i])
		m.pages = append(m.pages, srcs[from].pages[i])
		if withHashes {
			m.PageHashes = append(m.PageHashes, srcs[from].PageHashes[i])
		}
	})
	return m
}

// mergeAscending walks the union of two page lists, each strictly
// ascending by page number, in ascending order, handing take each
// element's list (0 for base, 1 for inc) and index; a page number both
// lists hold is taken from inc. It returns the union's length.
func mergeAscending[T any](base, inc []T, pn func(T) uint64, take func(from, i int)) (n int) {
	for i, j := 0, 0; i < len(base) || j < len(inc); n++ {
		if j == len(inc) || i < len(base) && pn(base[i]) < pn(inc[j]) {
			take(0, i)
			i++
			continue
		}
		if i < len(base) && pn(base[i]) == pn(inc[j]) {
			i++
		}
		take(1, j)
		j++
	}
	return n
}

// ascending reports whether s is strictly ascending by page number: the
// order every producer of a page list emits and mergeAscending relies on.
func ascending[T any](s []T, pn func(T) uint64) bool {
	for i := 1; i < len(s); i++ {
		if pn(s[i]) <= pn(s[i-1]) {
			return false
		}
	}
	return true
}

func pageNum(pn uint64) uint64 { return pn }
