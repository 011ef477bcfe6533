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
	// Shard marks an offer of one holder's shard subset: Hashes are that
	// holder's blocks, and the receiver will keep the chain manifests raw.
	Shard bool
}

// ChunkData pairs a page hash with its bytes on the wire.
type ChunkData struct {
	Hash mem.PageHash
	Data []byte
}

// Transfer is the delta a replica asked for: images (blob form) or
// encoded manifests plus missing chunks (dedup form). Its images are the
// sending store's own on the way out, and on the way in images read from
// the received frame (ReadImage), which hold the sender's page arrays;
// its byte slices are the sending store's own on the way out and
// sub-slices of the received frame on the way in. Either way they are
// immutable, and Adopt keeps them as the replica's without copying.
type Transfer struct {
	Pod string
	Seq int
	// Images are the blob-form checkpoints, ascending by Seq, at most one
	// per sequence.
	Images    []*Image
	Manifests map[int][]byte
	Chunks    []ChunkData
	// Set, when non-nil, makes this a shard subset: Chunks are blocks ring
	// position Holder stores for the set, Manifests its chain's.
	Set    *ECSet
	Holder int
	// TotalBytes is what the replica's disk will write on adoption: every
	// blob, manifest and chunk the transfer carries.
	TotalBytes int64
	// Ctx is the trace context of the replication exchange this transfer
	// belongs to; Adopt parents its disk-write span under it. The store is
	// wire-agnostic — the core layer sets this from the carrying message.
	Ctx trace.SpanContext
}

// ExportOffer describes the checkpoint at (pod, seq) for replication.
func (s *Store) ExportOffer(pod string, seq int) (*Offer, error) {
	chain, err := s.chain(pod, seq)
	if err != nil {
		return nil, err
	}
	o := &Offer{Pod: pod, Seq: seq, Chain: chain, Dedup: s.get(pod, seq).manifest != nil}
	if !o.Dedup {
		return o, nil
	}
	// The chain's page count bounds its distinct hashes: the set and the
	// list are sized once, not grown.
	refs := 0
	for _, cs := range chain {
		m := s.get(pod, cs).manifest
		for i := range m.Procs {
			refs += len(m.Procs[i].Pages)
		}
	}
	seen := make(map[mem.PageHash]bool, refs)
	o.Hashes = make([]mem.PageHash, 0, refs)
	for _, cs := range chain {
		s.get(pod, cs).manifest.eachRef(func(h mem.PageHash) {
			if !seen[h] {
				seen[h] = true
				o.Hashes = append(o.Hashes, h)
			}
		})
	}
	return o, nil
}

// Missing answers an offer with the chain sequences and chunk hashes this
// store lacks — the delta the sender must ship. A chain link counts as
// held only in the offered form; for a shard offer a raw manifest kept
// from an earlier set serves as well as a decoded one, so re-offers of an
// unchanged chain cost nothing.
func (s *Store) Missing(o *Offer) (needSeqs []int, needHashes []mem.PageHash) {
	for _, cs := range o.Chain {
		e := s.get(o.Pod, cs)
		have := e.img != nil
		if o.Dedup {
			have = e.manifest != nil || o.Shard && e.raw != nil
		}
		if !have {
			needSeqs = append(needSeqs, cs)
		}
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
		e := s.get(pod, cs)
		if e.manifest != nil {
			mblob, err := e.manifest.Encode()
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
		if e.img == nil {
			return nil, noImage(pod, cs)
		}
		if slices.Contains(t.Images, e.img) {
			continue
		}
		size, err := e.img.Size()
		if err != nil {
			return nil, err
		}
		t.Images = append(t.Images, e.img)
		t.TotalBytes += size
	}
	slices.SortFunc(t.Images, func(a, b *Image) int { return a.Seq - b.Seq })
	if len(needHashes) > 0 {
		t.Chunks = make([]ChunkData, len(needHashes))
	}
	for i, h := range needHashes {
		e, ok := s.chunks[h]
		if !ok {
			return nil, fmt.Errorf("ckpt: transfer missing chunk %v", h)
		}
		t.Chunks[i] = ChunkData{Hash: h, Data: e.data}
		t.TotalBytes += int64(len(e.data))
	}
	return t, nil
}

// Adopt installs a received transfer into this store — the replica's half
// of replication, or a holder's half of shard distribution — charging the
// sender-declared TotalBytes to the local disk. done fires with the bytes
// written once the write lands.
func (s *Store) Adopt(t *Transfer, done func(int64, error)) {
	// Chunks first so adopted manifests and shard sets can take references.
	for _, cd := range t.Chunks {
		s.putChunk(cd.Hash, cd.Data)
	}
	name, install := "store.adopt", s.adoptChain
	if t.Set != nil {
		name, install = "store.adopt_ec", s.adoptShards
	}
	if err := install(t); err != nil {
		done(0, err)
		return
	}
	if t.TotalBytes <= 0 {
		done(0, nil)
		return
	}
	sp := trace.FromEngine(s.disk.Engine()).BeginChild(t.Ctx, s.disk.Name(), "ckpt", name,
		trace.Str("pod", t.Pod), trace.Int("seq", int64(t.Seq)),
		trace.Int("bytes", t.TotalBytes))
	s.disk.Write(t.TotalBytes, func() {
		sp.End()
		done(t.TotalBytes, nil)
	})
}

// adoptChain registers a transfer's images and manifests, oldest first.
func (s *Store) adoptChain(t *Transfer) error {
	for _, img := range t.Images {
		s.putBlob(t.Pod, img.Seq, img)
	}
	for _, seq := range SortedSeqs(t.Manifests) {
		if err := s.adoptManifest(t.Pod, seq, t.Manifests[seq]); err != nil {
			return err
		}
	}
	return nil
}

// SortedSeqs returns the sequence numbers keying a Transfer's Manifests
// (or the wire's list of its images) in ascending order: the order Adopt
// installs them in and the order the wire lists their bytes in.
func SortedSeqs(m map[int][]byte) []int {
	seqs := make([]int, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}
