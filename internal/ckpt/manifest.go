package ckpt

import (
	"errors"
	"fmt"
	"slices"

	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
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

// DecodeManifest parses an encoded manifest, which must be exactly what
// Encode writes, rejecting a process whose pages do not strictly ascend
// (merges rely on the order). The manifest keeps no byte of b.
func DecodeManifest(b []byte) (*Manifest, error) {
	m, n, err := manifestCodec.Read(b)
	if err == nil && n != len(b) {
		err = errors.New("bytes after the value message")
	}
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
