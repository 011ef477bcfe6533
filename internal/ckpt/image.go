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
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"cruz/internal/ether"
	"cruz/internal/gobmemo"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// encBufPool recycles the staging buffers of the capture path's gob
// encodes (program state, image heads, manifests, shard sets). Only small
// structured state goes through gob — page bytes never do — so the
// buffers stay a few KB; checkpoints are taken repeatedly over a pod's
// life, and reusing the grown buffer avoids re-paying the
// append-doubling allocations on every capture.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// gobAppend runs encode against a pooled buffer and appends what it wrote
// to dst, grown once to hold it and reserve bytes more.
func gobAppend(dst []byte, reserve int, encode func(io.Writer) error) ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	if err := encode(buf); err != nil {
		return nil, err
	}
	return append(slices.Grow(dst, buf.Len()+reserve), buf.Bytes()...), nil
}

// The statically typed encodings — image heads, manifests, shard sets —
// go through one memoised codec each: gob's type descriptors are built
// once per process, and the bytes are those of a fresh encoder.
var (
	imageCodec    = gobmemo.New[Image]()
	manifestCodec = gobmemo.New[Manifest]()
	ecSetCodec    = gobmemo.New[ECSet]()
)

// memoAppend is gobAppend of v's encoding by its memoised codec.
func memoAppend[T any](c *gobmemo.Codec[T], dst []byte, v *T, reserve int) ([]byte, error) {
	return gobAppend(dst, reserve, func(w io.Writer) error { return c.Encode(w, v) })
}

// encodeToBytes gob-encodes v, with a fresh encoder, into a buffer sized
// for it. It serves progHolder, whose interface-typed field puts the
// program's concrete type descriptors among the value's bytes, so that no
// constant prefix exists to memoise.
func encodeToBytes(v any) ([]byte, error) {
	return gobAppend(nil, 0, func(w io.Writer) error { return gob.NewEncoder(w).Encode(v) })
}

// RegisterProgram must be called (once, at init time) for every concrete
// Program type that will be checkpointed, so its state can travel through
// gob. This mirrors the real-world requirement that checkpointable code
// be compiled into the restoring binary.
func RegisterProgram(p kernel.Program) { gob.Register(p) }

// progHolder lets gob encode the Program interface value.
type progHolder struct {
	P kernel.Program
}

// MemImage is a saved address space. Page contents are stored as one
// contiguous blob (PageData[i*PageSize:(i+1)*PageSize] belongs to page
// PageNums[i]) so serialization costs a bulk copy instead of per-page
// reflection — checkpoint images are ~100 MB in the paper's workloads.
type MemImage struct {
	Regions  []mem.Region
	PageNums []uint64
	PageData []byte
	// PageHashes, when present (Options.Hashes), holds the content hash
	// of each stored page, parallel to PageNums. It is what lets a store
	// deduplicate pages without re-reading their contents.
	PageHashes []mem.PageHash
}

// AddPage appends one page to the image.
func (m *MemImage) AddPage(pn uint64, data []byte) {
	m.PageNums = append(m.PageNums, pn)
	m.PageData = append(m.PageData, data...)
}

// Page returns the contents of the i-th stored page.
func (m *MemImage) Page(i int) []byte {
	return m.PageData[i*mem.PageSize : (i+1)*mem.PageSize]
}

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
	ProgData []byte // gob-encoded progHolder
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

// Image is a complete pod checkpoint.
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
}

// An encoded image is a small gob head followed by the raw page bytes:
//
//	magic(2) ‖ headLen(4, big-endian) ‖ head ‖ pages
//
// head is the gob encoding of the Image with every process's PageData
// emptied; pages is the processes' PageData back to back, in process
// order. The head's PageNums are the length table: process i owns the
// next len(PageNums)·PageSize bytes, and the tail must hold exactly
// their sum. Page bytes therefore cross Encode with one copy and
// DecodeImage with none.
const (
	imageMagic   = 0xC7A1
	imageHdrSize = 2 + 4
)

// Encode serializes the image, returning the byte stream a store writes
// to disk.
func (img *Image) Encode() ([]byte, error) {
	blob, _, err := img.encode()
	return blob, err
}

// encode returns the encoded image and the view of it a store keeps: a
// shallow copy of img whose PageData point into the blob, so the stored
// image costs its head and the blob is the only copy of the pages.
func (img *Image) encode() ([]byte, *Image, error) {
	view := *img
	view.Processes = append([]ProcImage(nil), img.Processes...)
	pageBytes := 0
	for i := range view.Processes {
		m := &view.Processes[i].Memory
		if len(m.PageData) != m.NumPages()*mem.PageSize {
			return nil, nil, fmt.Errorf("ckpt: encode image %s/%d: vpid %d holds %d page bytes for %d pages",
				img.PodName, img.Seq, view.Processes[i].VPID, len(m.PageData), m.NumPages())
		}
		pageBytes += len(m.PageData)
		m.PageData = nil
	}
	var hdr [imageHdrSize]byte
	blob, err := memoAppend(imageCodec, hdr[:], &view, pageBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: encode image: %w", err)
	}
	binary.BigEndian.PutUint16(blob, imageMagic)
	binary.BigEndian.PutUint32(blob[2:], uint32(len(blob)-imageHdrSize))
	for i := range img.Processes {
		blob = append(blob, img.Processes[i].Memory.PageData...)
	}
	view.aliasPages(blob[len(blob)-pageBytes:])
	return blob, &view, nil
}

// aliasPages points every process's PageData at its share of pages,
// which must hold exactly the bytes the PageNums call for.
func (img *Image) aliasPages(pages []byte) {
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		n := m.NumPages() * mem.PageSize
		m.PageData, pages = pages[:n:n], pages[n:]
	}
}

// DecodeImage parses an encoded image. The result's page bytes alias b,
// which the caller must leave unmodified for as long as the image lives.
func DecodeImage(b []byte) (*Image, error) {
	if len(b) < imageHdrSize || binary.BigEndian.Uint16(b) != imageMagic {
		return nil, errors.New("ckpt: decode image: not an encoded image")
	}
	headLen := uint64(binary.BigEndian.Uint32(b[2:]))
	if headLen == 0 || headLen > uint64(len(b)-imageHdrSize) {
		return nil, fmt.Errorf("ckpt: decode image: head of %d bytes in a %d-byte blob", headLen, len(b))
	}
	head, pages := b[imageHdrSize:imageHdrSize+headLen], b[imageHdrSize+headLen:]
	var img Image
	if _, err := imageCodec.Decode(head, &img); err != nil {
		return nil, fmt.Errorf("ckpt: decode image: %w", err)
	}
	var want uint64
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		if len(m.PageData) != 0 {
			return nil, errors.New("ckpt: decode image: page bytes inside the head")
		}
		want += uint64(m.NumPages()) * mem.PageSize
	}
	if want != uint64(len(pages)) {
		return nil, fmt.Errorf("ckpt: decode image: %d bytes follow a head that lists %d bytes of pages", len(pages), want)
	}
	img.aliasPages(pages)
	return &img, nil
}

// MemoryBytes returns the total page payload in the image — the dominant
// component of checkpoint size and hence of checkpoint latency (§6).
func (img *Image) MemoryBytes() int64 {
	var n int64
	for _, p := range img.Processes {
		n += int64(len(p.Memory.PageData))
	}
	for _, s := range img.Shms {
		n += int64(len(s.Contents))
	}
	return n
}

// Merge applies an incremental image on top of a (merged) base, producing
// a self-contained image equivalent to a full checkpoint at the
// increment's time. Kernel state (sockets, fds, signals, IPC values)
// comes wholly from the increment; only memory pages merge.
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
	out.Processes = make([]ProcImage, len(inc.Processes))
	baseByVPID := make(map[int]*ProcImage)
	for i := range base.Processes {
		baseByVPID[base.Processes[i].VPID] = &base.Processes[i]
	}
	for i, p := range inc.Processes {
		merged := p
		if bp, ok := baseByVPID[p.VPID]; ok {
			// Hashes survive a merge only when both sides carry them.
			withHashes := len(bp.Memory.PageHashes) == bp.Memory.NumPages() &&
				len(p.Memory.PageHashes) == p.Memory.NumPages()
			type pageSrc struct {
				data []byte
				hash mem.PageHash
			}
			pages := make(map[uint64]pageSrc, bp.Memory.NumPages()+p.Memory.NumPages())
			for j, pn := range bp.Memory.PageNums {
				src := pageSrc{data: bp.Memory.Page(j)}
				if withHashes {
					src.hash = bp.Memory.PageHashes[j]
				}
				pages[pn] = src
			}
			for j, pn := range p.Memory.PageNums {
				src := pageSrc{data: p.Memory.Page(j)}
				if withHashes {
					src.hash = p.Memory.PageHashes[j]
				}
				pages[pn] = src
			}
			// Deterministic page order.
			pns := make([]uint64, 0, len(pages))
			for pn := range pages {
				pns = append(pns, pn)
			}
			slices.Sort(pns)
			merged.Memory.PageNums = nil
			merged.Memory.PageHashes = nil
			merged.Memory.PageData = make([]byte, 0, len(pns)*mem.PageSize)
			for _, pn := range pns {
				merged.Memory.AddPage(pn, pages[pn].data)
				if withHashes {
					merged.Memory.PageHashes = append(merged.Memory.PageHashes, pages[pn].hash)
				}
			}
		}
		out.Processes[i] = merged
	}
	return &out, nil
}
