package ckpt

import (
	"errors"
	"fmt"

	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/trace"
)

// ErrNoImage is returned when a requested checkpoint does not exist.
var ErrNoImage = errors.New("ckpt: no such image")

// Store is checkpoint stable storage: a network-accessible file system
// holding encoded images (the paper relies on such a file system being
// reachable from any machine the application may restart on, and notes
// checkpoint latency "is dominated by the time to write this state to
// disk"). All save/load timing flows through the store's disk; the
// network path to it is assumed faster than the disk and not modeled
// separately.
//
// It is one catalog — an entry per (pod, seq) holding whatever is stored
// under that key — beside the refcounted, content-addressed chunk table
// that manifests, shard sets and held shard subsets reference.
type Store struct {
	disk        *kernel.Disk
	pods        map[string]map[int]*entry
	chunks      map[mem.PageHash]chunkEntry
	autoCompact int
	stats       StoreStats
}

// entry is everything stored under one (pod, seq). A checkpoint is kept in
// exactly one form: the image (saved, or adopted), which holds its
// encoding as its head and page arrays, or the manifest, whose pages live
// in the chunk table. A save or adoption under an occupied key replaces what was
// there. The erasure-coded tier hangs off the same key: the shard manifest
// this node striped as primary, the shard subset it holds for another
// node's checkpoint, and a chain manifest a holder keeps as raw bytes
// because it cannot resolve the chunks behind it.
type entry struct {
	img *Image // blob form: its encoding is the stored blob

	manifest      *Manifest
	manifestBytes int64 // encoded size: what a load of it reads

	// set and held take chunk references at stripe granularity, so a chunk
	// stays resident while any stripe parity covering it is live.
	set    *ECSet
	held   *ECSet
	holder int // ring position held was adopted for
	// raw outlives the held set it arrived with: a superseding set's chain
	// usually shares it, and Missing then asks the primary for nothing.
	raw []byte
}

// stored reports whether the entry holds a checkpoint, in either form.
func (e entry) stored() bool { return e.img != nil || e.manifest != nil }

func (e entry) empty() bool { return !e.stored() && e.set == nil && e.held == nil && e.raw == nil }

type chunkEntry struct {
	data []byte
	refs int
}

// NewStore creates a store backed by the given disk.
func NewStore(disk *kernel.Disk) *Store {
	return &Store{
		disk:   disk,
		pods:   make(map[string]map[int]*entry),
		chunks: make(map[mem.PageHash]chunkEntry),
	}
}

// Disk exposes the backing disk (agents drive pipelined writes through
// it directly).
func (s *Store) Disk() *kernel.Disk { return s.disk }

// get returns a copy of the entry at (pod, seq), zero when nothing is
// stored there, so readers need no nil check.
func (s *Store) get(pod string, seq int) entry {
	if e := s.pods[pod][seq]; e != nil {
		return *e
	}
	return entry{}
}

// ensure returns the entry at (pod, seq) for writing, creating it.
func (s *Store) ensure(pod string, seq int) *entry {
	if s.pods[pod] == nil {
		s.pods[pod] = make(map[int]*entry)
	}
	e := s.pods[pod][seq]
	if e == nil {
		e = new(entry)
		s.pods[pod][seq] = e
	}
	return e
}

// prune strikes the entry at (pod, seq) once nothing is stored under it.
func (s *Store) prune(pod string, seq int) {
	if e := s.pods[pod][seq]; e != nil && e.empty() {
		delete(s.pods[pod], seq)
	}
}

func noImage(pod string, seq int) error { return fmt.Errorf("%w: %s/%d", ErrNoImage, pod, seq) }

// chain walks the checkpoint at (pod, seq) back to its full base and
// returns the sequence numbers newest-first. The head fixes the form:
// chains never mix forms (HasBase is how savers keep it so), so a link
// stored in the other form is as missing as one never stored.
func (s *Store) chain(pod string, seq int) ([]int, error) {
	dedup := s.get(pod, seq).manifest != nil
	var seqs []int
	for cur := seq; ; {
		e := s.get(pod, cur)
		var incremental bool
		var base int
		switch {
		case dedup && e.manifest != nil:
			incremental, base = e.manifest.Incremental, e.manifest.BaseSeq
		case !dedup && e.img != nil:
			incremental, base = e.img.Incremental, e.img.BaseSeq
		default:
			return nil, fmt.Errorf("%w: %s/%d (chain from %d)", ErrNoImage, pod, cur, seq)
		}
		seqs = append(seqs, cur)
		if !incremental {
			return seqs, nil
		}
		if base >= cur {
			// Bases precede their increments; anything else (a manifest
			// off the wire can claim it) would walk in circles.
			return nil, fmt.Errorf("%w: %s/%d names %d as its base", ErrNoImage, pod, cur, base)
		}
		cur = base
	}
}

// HasSeq reports whether the store holds a usable checkpoint at seq —
// the image (or manifest) plus, for incrementals, its whole base chain.
func (s *Store) HasSeq(pod string, seq int) bool {
	_, err := s.chain(pod, seq)
	return err == nil
}

// HasBase reports whether (pod, seq) is a usable base for an incremental
// save in the given form (dedup: manifest, otherwise blob). An increment
// chained onto a base of the other form would commit and then fail every
// replication and restart, so a saver answered no captures full, exactly
// as it does when the base is missing.
func (s *Store) HasBase(pod string, seq int, dedup bool) bool {
	return s.HasSeq(pod, seq) && (s.get(pod, seq).manifest != nil) == dedup
}

// LatestSeq returns the highest sequence number the pod has a checkpoint
// (blob or manifest) stored under.
func (s *Store) LatestSeq(pod string) (latest int, ok bool) {
	for seq, e := range s.pods[pod] {
		if e.stored() && (!ok || seq > latest) {
			latest, ok = seq, true
		}
	}
	return latest, ok
}

// PlanSave encodes and registers the image without writing it, returning
// a plan whose TotalBytes — the encoding's size — the caller still owes
// the disk. Agents drive the write themselves, in pipelined segments.
func (s *Store) PlanSave(img *Image) (*SavePlan, error) {
	size, err := img.Size()
	if err != nil {
		return nil, err
	}
	s.putBlob(img.PodName, img.Seq, img)
	return &SavePlan{Pod: img.PodName, Seq: img.Seq, TotalBytes: size}, nil
}

// putBlob registers a blob-form image, which holds its own encoding.
func (s *Store) putBlob(pod string, seq int, img *Image) {
	e := s.ensure(pod, seq)
	s.dropManifest(e)
	e.img = img
}

// Discard removes stored checkpoints that were registered but never
// committed — the pre-copy rounds of an aborted epoch. Manifest-form
// entries release their chunk references (chunks nothing else references
// are freed), as does a shard set striped from them; blob-form entries
// are simply dropped. Discarding a sequence that was never stored is a
// no-op, so an abort handler can pass every sequence it planned without
// tracking which rounds landed.
func (s *Store) Discard(pod string, seqs ...int) {
	for _, seq := range seqs {
		e := s.ensure(pod, seq) // pruned again below if it was never stored
		e.img = nil
		s.dropManifest(e)
		s.dropSet(e)
		s.prune(pod, seq)
	}
}

// Cached returns the in-memory decoded form of a blob-form image, with
// no disk traffic modeled. A migration's restore-on-arrival merge uses
// it: the adopted bytes passed through this daemon's memory moments ago,
// so folding them into the held image costs CPU, not a read-back of what
// was just written. The image is immutable, like every Image, and it is
// the stored one. Deduplicated (manifest-form) images keep no
// single decoded representation and report false.
func (s *Store) Cached(pod string, seq int) (*Image, bool) {
	img := s.get(pod, seq).img
	return img, img != nil
}

// Load reads the checkpoint at (pod, seq) — seq 0 names the pod's newest —
// through the disk and hands done the image. With merged set, the
// whole incremental chain is read and folded into one self-contained
// image; otherwise the one image comes back as stored. The read covers the
// chain's blobs, or its manifests plus every distinct chunk the resulting
// page set needs (manifests fold as metadata, so a deduplicated chain does
// not re-read the O(chain) page bytes a blob chain does). The store.load
// span becomes a child of ctx (restart, recovery fetch, a migration's
// restore-on-arrival merge; zero = no parent) so the read shows up on that
// op's critical path.
func (s *Store) Load(pod string, seq int, merged bool, ctx trace.SpanContext, done func(*Image, error)) {
	if seq == 0 {
		var ok bool
		if seq, ok = s.LatestSeq(pod); !ok {
			done(nil, fmt.Errorf("%w: %s", ErrNoImage, pod))
			return
		}
	}
	seqs, err := []int{seq}, error(nil)
	if merged {
		seqs, err = s.chain(pod, seq)
	} else if !s.get(pod, seq).stored() {
		err = noImage(pod, seq)
	}
	if err != nil {
		done(nil, err)
		return
	}
	// Size the read. A manifest chain folds here — its distinct chunks are
	// what the read covers — and a blob chain merges once the bytes are read.
	var (
		total int64
		imgs  []*Image
		m     *Manifest
	)
	if s.get(pod, seq).manifest != nil {
		if m, err = s.foldManifests(pod, seqs); err != nil {
			done(nil, err)
			return
		}
		total = uniqueChunkBytes(m)
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		e := s.get(pod, seqs[i])
		if total += e.manifestBytes; e.img != nil {
			size, err := e.img.Size()
			if err != nil {
				done(nil, err)
				return
			}
			imgs = append(imgs, e.img)
			total += size
		}
	}
	sp := trace.FromEngine(s.disk.Engine()).BeginChild(ctx, s.disk.Name(), "ckpt", "store.load",
		trace.Str("pod", pod), trace.Int("seq", int64(seq)),
		trace.Int("bytes", total), trace.Int("chain", int64(len(seqs))))
	s.disk.Read(total, func() {
		sp.End()
		if m != nil {
			done(imageFromManifest(m, s.chunkData))
			return
		}
		img := imgs[0]
		for _, inc := range imgs[1:] {
			if img, err = Merge(img, inc); err != nil {
				break
			}
		}
		done(img, err)
	})
}
