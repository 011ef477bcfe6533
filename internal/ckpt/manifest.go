package ckpt

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cruz/internal/gobmemo"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// PageRef names one page of a process by its content hash. The page's
// bytes live in the store's chunk table, shared by every manifest (and
// every pod) whose pages have the same contents.
type PageRef struct {
	PN   uint64
	Hash mem.PageHash
}

// ProcManifest mirrors ProcImage with page contents replaced by hash
// references. Everything else (program state, descriptors, signals) is
// small and stays inline.
type ProcManifest struct {
	VPID     int
	Name     string
	ProgData []byte
	Regions  []mem.Region
	Pages    []PageRef
	FDs      []FDImage
	Signals  []kernel.Signal
	CPUTime  sim.Duration
}

// Manifest is the metadata half of a content-addressed checkpoint: the
// full kernel/net/process state plus a page-hash list, with the bulk
// page bytes factored out into the store's deduplicated chunk table.
// A manifest is a few KB where the equivalent monolithic image is ~100
// MB, so writing one is nearly free; only chunks the store has never
// seen cost disk time.
type Manifest struct {
	PodName     string
	Seq         int
	BaseSeq     int
	Incremental bool
	// Synthetic marks a manifest produced by Compact: a full manifest
	// folded from an incremental chain, replacing that chain.
	Synthetic bool
	TakenAt   sim.Time

	Net      NetImage
	NextVPID int
	Procs    []ProcManifest
	Shms     []ShmImage
	Sems     []SemImage
	Pipes    []PipeImage
}

// eachRef calls fn with the hash of every page reference, in page order.
func (m *Manifest) eachRef(fn func(mem.PageHash)) {
	for i := range m.Procs {
		for _, ref := range m.Procs[i].Pages {
			fn(ref.Hash)
		}
	}
}

// Encode serializes the manifest (the only part of a deduplicated save
// that is always written in full).
func (m *Manifest) Encode() ([]byte, error) {
	b, err := memoEncode(manifestCodec, m)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode manifest: %w", err)
	}
	return b, nil
}

// DecodeManifest parses an encoded manifest, rejecting a process whose
// pages do not strictly ascend (merges rely on the order). The manifest
// keeps no byte of b.
func DecodeManifest(b []byte) (*Manifest, error) {
	m, err := readManifest(b)
	if err != nil {
		return nil, fmt.Errorf("ckpt: decode manifest: %w", err)
	}
	for i := range m.Procs {
		if !ascending(m.Procs[i].Pages, refPageNum) {
			return nil, fmt.Errorf("ckpt: decode manifest: vpid %d lists its pages out of order", m.Procs[i].VPID)
		}
	}
	return m, nil
}

// readManifest reads a manifest off the bytes Encode writes without gob's
// decoder, as parseECSet reads a shard set: it allocates the manifest and
// what it carries — its strings and slices, a copy of each byte slice,
// and the state a descriptor points at — and keeps no byte of b. It takes
// P ‖ V only, and of V only what gob.Encoder writes — a struct field when
// it is not zero, an array or nested struct always — so what it accepts is
// what a fresh gob.Decoder makes of the bytes, and re-encodes to them.
// Each struct is read by readFields with one entry per exported field, so
// a field added to Manifest or a type it carries needs an entry, or
// TestManifestReaderMatchesGob fails.
func readManifest(b []byte) (*Manifest, error) {
	v, rest, err := manifestCodec.Value(b)
	if err == nil && len(rest) > 0 {
		err = errors.New("bytes after the value message")
	}
	if err != nil {
		return nil, err
	}
	m, r := new(Manifest), gobmemo.NewReader(v)
	readFields(&r, &m.PodName, &m.Seq, &m.BaseSeq, &m.Incremental, &m.Synthetic, (*int64)(&m.TakenAt),
		func() { m.Net = readNet(&r) }, &m.NextVPID,
		func(n int) { each(&m.Procs, n, func(p *ProcManifest) { readProc(&r, p) }) },
		func(n int) {
			each(&m.Shms, n, func(s *ShmImage) { readFields(&r, &s.ID, &s.Key, &s.Size, &s.Contents) })
		},
		func(n int) { each(&m.Sems, n, func(s *SemImage) { readFields(&r, &s.ID, &s.Key, &s.Value) }) },
		func(n int) { each(&m.Pipes, n, func(p *PipeImage) { readFields(&r, &p.ID, &p.Buffer) }) })
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// readFields reads a struct whose exported fields are, in order, at: each
// a pointer to where a field of a plain kind goes, read when it is sent —
// an int, int64, uint64, uint32 or uint16, a string, a bool, a byte
// slice, copied — or a func that reads it: a func(n int), handed its
// count, for a slice of anything else, an ifSent for a pointer, and a
// func() for an array or a struct, which gob sends whatever it holds, so
// it must have been.
func readFields(r *gobmemo.Reader, at ...any) {
	var sent uint
	for f := r.Field(-1, len(at)); f >= 0; f = r.Field(f, len(at)) {
		sent |= 1 << f
		switch p := at[f].(type) {
		case *int:
			*p = int(r.SentInt())
		case *int64:
			*p = r.SentInt()
		case *uint64:
			*p = r.SentUint()
		case *uint32:
			x := r.SentUint()
			r.Check(x <= math.MaxUint32, "a uint32 out of range")
			*p = uint32(x)
		case *uint16:
			*p = ReadPort(r)
		case *string:
			*p = r.SentString()
		case *bool:
			*p = r.SentBool()
		case *[]byte:
			b := r.Bytes()
			r.Check(len(b) > 0, "a zero field sent")
			*p = append([]byte(nil), b...)
		case func(int):
			p(r.SentCount())
		case func():
			p()
		case ifSent:
			p()
		default:
			panic("ckpt: readFields has no reader for a field of this kind")
		}
	}
	for f, p := range at {
		_, always := p.(func())
		r.Check(!always || sent&(1<<f) != 0, "an array or struct field not sent")
	}
}

// each makes *s n long and has read fill each element.
func each[T any](s *[]T, n int, read func(*T)) {
	*s = make([]T, n)
	for i := range *s {
		read(&(*s)[i])
	}
}

// ifSent reads a pointer field, which gob sends when it is not nil.
type ifSent func()

// ReadAddr reads a tcpip.Addr, an array, off a gob value, and ReadPort a
// port field: the walks of a manifest and of a control frame's head share
// them, as they share ReadHash.
func ReadAddr(r *gobmemo.Reader) (a tcpip.Addr) {
	readArray(r, a[:])
	return a
}

func ReadPort(r *gobmemo.Reader) uint16 {
	x := r.SentUint()
	r.Check(x <= math.MaxUint16, "a port out of range")
	return uint16(x)
}

// readArray fills a with a byte array, sent as its length and each byte.
func readArray(r *gobmemo.Reader, a []byte) {
	r.Check(r.Uint() == uint64(len(a)), "an array of the wrong length")
	for i := range a {
		x := r.Uint()
		r.Check(x <= math.MaxUint8, "an array byte out of range")
		a[i] = byte(x)
	}
}

func readNet(r *gobmemo.Reader) (n NetImage) {
	readFields(r, func() { n.IP = ReadAddr(r) }, func() { readArray(r, n.MAC[:]) },
		func() { readArray(r, n.FakeMAC[:]) }, &n.SharedMAC)
	return n
}

func readProc(r *gobmemo.Reader, p *ProcManifest) {
	readFields(r, &p.VPID, &p.Name, &p.ProgData,
		func(n int) { each(&p.Regions, n, func(g *mem.Region) { readFields(r, &g.Start, &g.Size, &g.Name) }) },
		func(n int) {
			each(&p.Pages, n, func(ref *PageRef) { readFields(r, &ref.PN, func() { ref.Hash = ReadHash(r) }) })
		},
		func(n int) { each(&p.FDs, n, func(fd *FDImage) { readFD(r, fd) }) },
		func(n int) { each(&p.Signals, n, func(s *kernel.Signal) { *s = kernel.Signal(r.Int()) }) },
		(*int64)(&p.CPUTime))
}

func readFD(r *gobmemo.Reader, fd *FDImage) {
	readFields(r, &fd.Num, (*int)(&fd.Kind),
		ifSent(func() { fd.Conn = readConn(r) }),
		ifSent(func() {
			l := new(tcpip.TCPListenerState)
			readFields(r, func() { readAddrPort(r, &l.Local) }, &l.Backlog)
			fd.Listener = l
		}),
		ifSent(func() {
			u := new(UDPImage)
			readFields(r, func() { readAddrPort(r, &u.Local) }, &u.Broadcast,
				func(n int) {
					each(&u.Queue, n, func(m *tcpip.UDPMessage) { readFields(r, func() { readAddrPort(r, &m.From) }, &m.Data) })
				})
			fd.UDP = u
		}), &fd.PipeID)
}

func readConn(r *gobmemo.Reader) *tcpip.TCPSavedState {
	c := new(tcpip.TCPSavedState)
	tuple := func() {
		readFields(r, func() { readAddrPort(r, &c.Tuple.Local) }, func() { readAddrPort(r, &c.Tuple.Remote) })
	}
	readFields(r, tuple, (*int)(&c.State), &c.ISS, &c.IRS, &c.SndUna, &c.RcvNxt, &c.SndWnd,
		func(n int) { each(&c.SendSegments, n, func(s *tcpip.SavedSegment) { readFields(r, &s.Data, &s.FIN) }) },
		&c.SendPending, &c.RecvData, &c.NoDelay, &c.Cork, &c.FinQueued, &c.RcvClosed)
	return c
}

// readAddrPort reads a tcpip.AddrPort, a struct, into ap.
func readAddrPort(r *gobmemo.Reader, ap *tcpip.AddrPort) {
	readFields(r, func() { ap.Addr = ReadAddr(r) }, &ap.Port)
}

func refPageNum(r PageRef) uint64 { return r.PN }

// manifestFromImage splits an image captured with Options.Hashes into
// its manifest; the caller pairs it with the image's page bytes to
// populate the chunk table.
func manifestFromImage(img *Image) (*Manifest, error) {
	m := &Manifest{
		PodName:     img.PodName,
		Seq:         img.Seq,
		BaseSeq:     img.BaseSeq,
		Incremental: img.Incremental,
		TakenAt:     img.TakenAt,
		Net:         img.Net,
		NextVPID:    img.NextVPID,
		Shms:        img.Shms,
		Sems:        img.Sems,
		Pipes:       img.Pipes,
	}
	m.Procs = make([]ProcManifest, len(img.Processes))
	for i := range img.Processes {
		p := &img.Processes[i]
		if len(p.Memory.PageHashes) != p.Memory.NumPages() {
			return nil, fmt.Errorf("ckpt: image %s/%d vpid %d captured without page hashes",
				img.PodName, img.Seq, p.VPID)
		}
		pm := ProcManifest{
			VPID:     p.VPID,
			Name:     p.Name,
			ProgData: p.ProgData,
			Regions:  p.Memory.Regions,
			FDs:      p.FDs,
			Signals:  p.Signals,
			CPUTime:  p.CPUTime,
		}
		pm.Pages = make([]PageRef, p.Memory.NumPages())
		for j, pn := range p.Memory.PageNums {
			pm.Pages[j] = PageRef{PN: pn, Hash: p.Memory.PageHashes[j]}
		}
		m.Procs[i] = pm
	}
	return m, nil
}

// imageFromManifest rebuilds a self-contained image whose pages are the
// chunks each page reference resolves to through lookup (the chunk table).
func imageFromManifest(m *Manifest, lookup func(mem.PageHash) []byte) (*Image, error) {
	img := &Image{
		PodName:     m.PodName,
		Seq:         m.Seq,
		BaseSeq:     m.BaseSeq,
		Incremental: m.Incremental,
		TakenAt:     m.TakenAt,
		Net:         m.Net,
		NextVPID:    m.NextVPID,
		Shms:        m.Shms,
		Sems:        m.Sems,
		Pipes:       m.Pipes,
	}
	img.Processes = make([]ProcImage, len(m.Procs))
	for i := range m.Procs {
		pm := &m.Procs[i]
		pi := ProcImage{
			VPID:     pm.VPID,
			Name:     pm.Name,
			ProgData: pm.ProgData,
			FDs:      pm.FDs,
			Signals:  pm.Signals,
			CPUTime:  pm.CPUTime,
		}
		pi.Memory.Regions = pm.Regions
		pi.Memory.PageNums = make([]uint64, len(pm.Pages))
		pi.Memory.PageHashes = make([]mem.PageHash, len(pm.Pages))
		pi.Memory.pages = make([]*[mem.PageSize]byte, len(pm.Pages))
		for j, ref := range pm.Pages {
			data := lookup(ref.Hash)
			if len(data) != mem.PageSize {
				return nil, fmt.Errorf("ckpt: manifest %s/%d vpid %d page %d: missing chunk",
					m.PodName, m.Seq, pm.VPID, ref.PN)
			}
			pi.Memory.PageNums[j] = ref.PN
			pi.Memory.PageHashes[j] = ref.Hash
			pi.Memory.pages[j] = (*[mem.PageSize]byte)(data)
		}
		img.Processes[i] = pi
	}
	return img, nil
}

// mergeManifests applies an incremental manifest on top of a (merged)
// base — the content-addressed analogue of Merge, but touching only
// metadata: page references merge by number, no page bytes are copied.
func mergeManifests(base, inc *Manifest) (*Manifest, error) {
	if !inc.Incremental {
		return inc, nil
	}
	if base == nil || base.PodName != inc.PodName || inc.BaseSeq != base.Seq {
		return nil, fmt.Errorf("ckpt: increment manifest %s/%d does not apply to base %v",
			inc.PodName, inc.Seq, base)
	}
	out := *inc
	out.Incremental = false
	out.BaseSeq = 0
	out.Procs = make([]ProcManifest, len(inc.Procs))
	for i, p := range inc.Procs {
		if j := slices.IndexFunc(base.Procs, func(b ProcManifest) bool { return b.VPID == p.VPID }); j >= 0 {
			srcs := [2][]PageRef{base.Procs[j].Pages, p.Pages}
			p.Pages = make([]PageRef, 0, mergeAscending(srcs[0], srcs[1], refPageNum, func(int, int) {}))
			mergeAscending(srcs[0], srcs[1], refPageNum, func(from, k int) { p.Pages = append(p.Pages, srcs[from][k]) })
		}
		out.Procs[i] = p
	}
	return &out, nil
}
