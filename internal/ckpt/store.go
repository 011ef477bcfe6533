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
// disk"). All Save/Load timing flows through the store's disk; the
// network path to it is assumed faster than the disk and not modeled
// separately.
type Store struct {
	disk *kernel.Disk
	// Blob-form checkpoints are stored once: blobs holds the encoded
	// image, immutable from the moment it is registered, and images the
	// decoded head (chain metadata, Cached) whose page bytes point into
	// that blob.
	blobs  map[string]map[int][]byte
	images map[string]map[int]*Image
	latest map[string]int

	// Content-addressed half: manifests (metadata + page-hash lists) and
	// the refcounted chunk table they reference. A pod's checkpoints use
	// either the blob form (PlanSave) or the manifest form (PlanDedupSave);
	// Load/LoadMerged resolve whichever form a sequence was stored in.
	manifests     map[string]map[int]*Manifest
	manifestBytes map[string]map[int]int64
	chunks        map[mem.PageHash]*chunkEntry
	autoCompact   int
	stats         StoreStats

	// Erasure-coded half: shard manifests registered by PlanECSave (the
	// primary's view), shard sets held for other nodes' checkpoints, and
	// raw chain-manifest blobs a holder keeps without resolving. EC sets
	// hold chunk references at stripe granularity, so a chunk stays
	// resident while any stripe parity covering it is live.
	ecsets      map[string]map[int]*ECSet
	ecHeld      map[string]map[int]*ECHeld
	ecManifests map[string]map[int][]byte
}

type chunkEntry struct {
	data []byte
	refs int
}

// NewStore creates a store backed by the given disk.
func NewStore(disk *kernel.Disk) *Store {
	return &Store{
		disk:          disk,
		blobs:         make(map[string]map[int][]byte),
		images:        make(map[string]map[int]*Image),
		latest:        make(map[string]int),
		manifests:     make(map[string]map[int]*Manifest),
		manifestBytes: make(map[string]map[int]int64),
		chunks:        make(map[mem.PageHash]*chunkEntry),
		ecsets:        make(map[string]map[int]*ECSet),
		ecHeld:        make(map[string]map[int]*ECHeld),
		ecManifests:   make(map[string]map[int][]byte),
	}
}

// Disk exposes the backing disk (agents drive pipelined writes through
// it directly).
func (s *Store) Disk() *kernel.Disk { return s.disk }

// Save encodes the image and writes it through the disk, invoking done
// with the encoded size when the write completes. Encoding errors are
// reported synchronously through done as well.
func (s *Store) Save(img *Image, done func(size int64, err error)) {
	plan, err := s.PlanSave(img)
	if err != nil {
		done(0, err)
		return
	}
	size := plan.TotalBytes
	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.Begin(s.disk.Name(), "ckpt", "store.save",
			trace.Str("pod", img.PodName), trace.Int("seq", int64(img.Seq)),
			trace.Int("bytes", size))
	}
	s.disk.Write(size, func() {
		sp.End()
		done(size, nil)
	})
}

// PlanSave encodes and registers the image without writing it, returning
// a plan whose TotalBytes the caller still owes the disk. Agents use it
// to drive the write themselves, in pipelined segments; Save remains the
// one-call encode-and-write form.
func (s *Store) PlanSave(img *Image) (*SavePlan, error) {
	blob, view, err := img.encode()
	if err != nil {
		return nil, err
	}
	s.putBlob(img.PodName, img.Seq, blob, view)
	return &SavePlan{Pod: img.PodName, Seq: img.Seq, TotalBytes: int64(len(blob))}, nil
}

// putBlob registers an encoded image and the view decoded from it (or
// encoded into it): from here on the blob is immutable, and the view's
// page bytes are the blob's.
func (s *Store) putBlob(pod string, seq int, blob []byte, view *Image) {
	if s.blobs[pod] == nil {
		s.blobs[pod] = make(map[int][]byte)
		s.images[pod] = make(map[int]*Image)
	}
	s.blobs[pod][seq] = blob
	s.images[pod][seq] = view
	if seq > s.latest[pod] {
		s.latest[pod] = seq
	}
}

// Discard removes stored checkpoints that were registered but never
// committed — the pre-copy rounds of an aborted epoch. Manifest-form
// entries release their chunk references (chunks nothing else references
// are freed); blob-form entries are simply dropped. Discarding a
// sequence that was never stored is a no-op, so an abort handler can
// pass every sequence it planned without tracking which rounds landed.
func (s *Store) Discard(pod string, seqs ...int) {
	for _, seq := range seqs {
		delete(s.blobs[pod], seq)
		delete(s.images[pod], seq)
		s.dropManifest(pod, seq)
		s.dropECSet(pod, seq)
	}
	// Recompute the pod's latest sequence (max is order-insensitive).
	maxSeq, found := 0, false
	for seq := range s.images[pod] {
		if !found || seq > maxSeq {
			maxSeq, found = seq, true
		}
	}
	for seq := range s.manifests[pod] {
		if !found || seq > maxSeq {
			maxSeq, found = seq, true
		}
	}
	if found {
		s.latest[pod] = maxSeq
	} else {
		delete(s.latest, pod)
	}
}

// Cached returns the in-memory decoded form of a blob-form image, with
// no disk traffic modeled. A migration's restore-on-arrival merge uses
// it: the adopted bytes passed through this daemon's memory moments ago,
// so folding them into the held image costs CPU, not a read-back of what
// was just written. The image's page bytes are the stored blob's and
// must not be written. Deduplicated (manifest-form) images keep no
// single decoded representation and report false.
func (s *Store) Cached(pod string, seq int) (*Image, bool) {
	img, ok := s.images[pod][seq]
	return img, ok
}

// LatestSeq returns the highest stored sequence number for a pod.
func (s *Store) LatestSeq(pod string) (int, bool) {
	seq, ok := s.latest[pod]
	return seq, ok
}

// Load reads and decodes one image through the disk, invoking done when
// the read completes. Incremental images are returned as-is; use
// LoadMerged to resolve a chain. The store.load span becomes a child of
// ctx (a migration's restore-on-arrival merge; zero = no parent) so the
// disk read shows up on that op's critical path.
func (s *Store) Load(pod string, seq int, ctx trace.SpanContext, done func(*Image, error)) {
	blob, ok := s.blobs[pod][seq]
	if !ok {
		if _, mok := s.manifests[pod][seq]; mok {
			s.loadManifest(pod, seq, false, ctx, done)
			return
		}
		done(nil, fmt.Errorf("%w: %s/%d", ErrNoImage, pod, seq))
		return
	}
	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.BeginChild(ctx, s.disk.Name(), "ckpt", "store.load",
			trace.Str("pod", pod), trace.Int("seq", int64(seq)),
			trace.Int("bytes", int64(len(blob))))
	}
	s.disk.Read(int64(len(blob)), func() {
		sp.End()
		img, err := DecodeImage(blob)
		done(img, err)
	})
}

// LoadMerged reads the image at seq and, if it is incremental, every
// image back to its full base, merging them into one self-contained
// image. The disk read time covers the whole chain; the store.load span
// becomes a child of ctx (restart, recovery fetch; zero = no parent).
func (s *Store) LoadMerged(pod string, seq int, ctx trace.SpanContext, done func(*Image, error)) {
	if _, ok := s.manifests[pod][seq]; ok {
		s.loadManifest(pod, seq, true, ctx, done)
		return
	}
	metas := s.images[pod]
	if metas == nil {
		done(nil, fmt.Errorf("%w: %s/%d", ErrNoImage, pod, seq))
		return
	}
	// Walk the chain from seq down to the full base.
	var chain []int
	var total int64
	cur := seq
	for {
		meta, ok := metas[cur]
		if !ok {
			done(nil, fmt.Errorf("%w: %s/%d (chain from %d)", ErrNoImage, pod, cur, seq))
			return
		}
		chain = append(chain, cur)
		total += int64(len(s.blobs[pod][cur]))
		if !meta.Incremental {
			break
		}
		cur = meta.BaseSeq
	}
	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.BeginChild(ctx, s.disk.Name(), "ckpt", "store.load",
			trace.Str("pod", pod), trace.Int("seq", int64(seq)),
			trace.Int("bytes", total), trace.Int("chain", int64(len(chain))))
	}
	s.disk.Read(total, func() {
		sp.End()
		// Decode base-first, merging upward.
		merged, err := DecodeImage(s.blobs[pod][chain[len(chain)-1]])
		if err != nil {
			done(nil, err)
			return
		}
		for i := len(chain) - 2; i >= 0; i-- {
			inc, derr := DecodeImage(s.blobs[pod][chain[i]])
			if derr != nil {
				done(nil, derr)
				return
			}
			merged, derr = Merge(merged, inc)
			if derr != nil {
				done(nil, derr)
				return
			}
		}
		done(merged, nil)
	})
}

// LoadLatest resolves the newest image (merging any incremental chain),
// its load span a child of ctx.
func (s *Store) LoadLatest(pod string, ctx trace.SpanContext, done func(*Image, error)) {
	seq, ok := s.LatestSeq(pod)
	if !ok {
		done(nil, fmt.Errorf("%w: %s", ErrNoImage, pod))
		return
	}
	s.LoadMerged(pod, seq, ctx, done)
}
