package ckpt

import (
	"fmt"
	"slices"

	"cruz/internal/mem"
	"cruz/internal/trace"
)

// Replication support: a store can describe one of its checkpoints as an
// Offer, a peer store answers with what it is missing, and the resulting
// Transfer carries only those bytes — the manifest(s) plus chunks the
// replica has never seen, mirroring PlanDedupSave's accounting — so
// steady-state replication of a deduplicated checkpoint chain costs
// little more than the manifest.

// Offer describes one stored checkpoint (and its incremental chain) for
// replication, without any bulk data.
type Offer struct {
	Pod string
	Seq int
	// Chain lists the sequence numbers a restore of Seq needs,
	// newest-first (length 1 for a full checkpoint).
	Chain []int
	// Dedup marks the manifest/chunk form; Hashes then lists every
	// distinct page hash the chain references, in deterministic order.
	Dedup  bool
	Hashes []mem.PageHash
}

// ChunkData pairs a page hash with its bytes on the wire.
type ChunkData struct {
	Hash mem.PageHash
	Data []byte
}

// Transfer is the delta a replica asked for: encoded images (blob form)
// or encoded manifests plus missing chunks (dedup form). Its byte slices
// are the sending store's own on the way out and sub-slices of the
// received frame on the way in; either way they are immutable, and
// Adopt keeps them as the replica's blobs and chunks without copying.
type Transfer struct {
	Pod       string
	Seq       int
	Blobs     map[int][]byte
	Manifests map[int][]byte
	Chunks    []ChunkData
	// TotalBytes is what the replica's disk will write on adoption.
	TotalBytes int64
	// Ctx is the trace context of the replication exchange this transfer
	// belongs to; Adopt parents its disk-write span under it. The store is
	// wire-agnostic — the core layer sets this from the carrying message.
	Ctx trace.SpanContext
}

// HasSeq reports whether the store holds a usable checkpoint at seq —
// the image (or manifest) plus, for incrementals, its whole base chain.
func (s *Store) HasSeq(pod string, seq int) bool {
	if _, ok := s.manifests[pod][seq]; ok {
		_, err := s.manifestChain(pod, seq)
		return err == nil
	}
	meta, ok := s.images[pod][seq]
	for ok {
		if !meta.Incremental {
			return true
		}
		meta, ok = s.images[pod][meta.BaseSeq]
	}
	return false
}

// ExportOffer describes the checkpoint at (pod, seq) for replication.
func (s *Store) ExportOffer(pod string, seq int) (*Offer, error) {
	o := &Offer{Pod: pod, Seq: seq}
	if _, ok := s.manifests[pod][seq]; ok {
		chain, err := s.manifestChain(pod, seq)
		if err != nil {
			return nil, err
		}
		o.Chain = chain
		o.Dedup = true
		seen := make(map[mem.PageHash]bool)
		for _, cs := range chain {
			m := s.manifests[pod][cs]
			for i := range m.Procs {
				for _, ref := range m.Procs[i].Pages {
					if !seen[ref.Hash] {
						seen[ref.Hash] = true
						o.Hashes = append(o.Hashes, ref.Hash)
					}
				}
			}
		}
		return o, nil
	}
	metas := s.images[pod]
	cur := seq
	for {
		meta, ok := metas[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %s/%d (chain from %d)", ErrNoImage, pod, cur, seq)
		}
		o.Chain = append(o.Chain, cur)
		if !meta.Incremental {
			return o, nil
		}
		cur = meta.BaseSeq
	}
}

// MissingFor answers an offer with the chain sequences and chunk hashes
// this store lacks — the delta the sender must ship.
func (s *Store) MissingFor(o *Offer) (needSeqs []int, needHashes []mem.PageHash) {
	for _, cs := range o.Chain {
		if o.Dedup {
			if _, ok := s.manifests[o.Pod][cs]; ok {
				continue
			}
		} else if _, ok := s.blobs[o.Pod][cs]; ok {
			continue
		}
		needSeqs = append(needSeqs, cs)
	}
	for _, h := range o.Hashes {
		if _, ok := s.chunks[h]; !ok {
			needHashes = append(needHashes, h)
		}
	}
	return needSeqs, needHashes
}

// BuildTransfer assembles the delta a replica asked for.
func (s *Store) BuildTransfer(pod string, seq int, needSeqs []int, needHashes []mem.PageHash) (*Transfer, error) {
	t := &Transfer{Pod: pod, Seq: seq}
	for _, cs := range needSeqs {
		if m, ok := s.manifests[pod][cs]; ok {
			mblob, err := m.Encode()
			if err != nil {
				return nil, err
			}
			if t.Manifests == nil {
				t.Manifests = make(map[int][]byte)
			}
			t.Manifests[cs] = mblob
			t.TotalBytes += int64(len(mblob))
			continue
		}
		blob, ok := s.blobs[pod][cs]
		if !ok {
			return nil, fmt.Errorf("%w: %s/%d", ErrNoImage, pod, cs)
		}
		if t.Blobs == nil {
			t.Blobs = make(map[int][]byte)
		}
		t.Blobs[cs] = blob
		t.TotalBytes += int64(len(blob))
	}
	for _, h := range needHashes {
		e, ok := s.chunks[h]
		if !ok {
			return nil, fmt.Errorf("ckpt: transfer missing chunk %v", h)
		}
		t.Chunks = append(t.Chunks, ChunkData{Hash: h, Data: e.data})
		t.TotalBytes += int64(len(e.data))
	}
	return t, nil
}

// Adopt installs a received transfer into this store — the replica's
// half of replication — charging the bytes to the local disk. done fires
// with the bytes written once the write lands.
func (s *Store) Adopt(t *Transfer, done func(int64, error)) {
	// Chunks first so adopted manifests can take references.
	for _, cd := range t.Chunks {
		if _, ok := s.chunks[cd.Hash]; !ok {
			s.chunks[cd.Hash] = &chunkEntry{data: cd.Data}
			s.stats.NewChunks++
			s.stats.NewChunkBytes += int64(len(cd.Data))
		}
	}
	for _, seq := range SortedSeqs(t.Blobs) {
		blob := t.Blobs[seq]
		img, err := DecodeImage(blob)
		if err != nil {
			done(0, err)
			return
		}
		s.putBlob(t.Pod, seq, blob, img)
	}
	for _, seq := range SortedSeqs(t.Manifests) {
		if err := s.adoptManifest(t.Pod, seq, t.Manifests[seq]); err != nil {
			done(0, err)
			return
		}
	}
	if t.TotalBytes <= 0 {
		done(0, nil)
		return
	}
	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.BeginChild(t.Ctx, s.disk.Name(), "ckpt", "store.adopt",
			trace.Str("pod", t.Pod), trace.Int("seq", int64(t.Seq)),
			trace.Int("bytes", t.TotalBytes))
	}
	s.disk.Write(t.TotalBytes, func() {
		sp.End()
		done(t.TotalBytes, nil)
	})
}

// SortedSeqs returns the sequence numbers keying a Transfer's Blobs or
// Manifests in ascending order: the order Adopt installs them in and the
// order the wire lists their bytes in.
func SortedSeqs(m map[int][]byte) []int {
	seqs := make([]int, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}
