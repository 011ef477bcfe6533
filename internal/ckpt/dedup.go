package ckpt

import (
	"fmt"

	"cruz/internal/mem"
	"cruz/internal/trace"
)

// SaveStats breaks down one deduplicated save: how many page chunks were
// new to the store versus already resident, and the bytes the save writes.
// TotalBytes (manifest + new chunks) is what the disk actually writes.
type SaveStats struct {
	ManifestBytes int64
	NewChunkBytes int64
	NewChunks     int
	DupChunks     int
}

// TotalBytes returns the bytes this save must write to disk.
func (st SaveStats) TotalBytes() int64 { return st.ManifestBytes + st.NewChunkBytes }

// SavePlan is the synchronous half of a deduplicated save: the manifest
// and chunk bookkeeping are done, and TotalBytes of disk writing remain.
// Agents use it to drive the write themselves (pipelined, in segments).
type SavePlan struct {
	Pod        string
	Seq        int
	TotalBytes int64
	Stats      SaveStats
	// CompactAfter is set when this save pushed the pod's incremental
	// chain past the store's auto-compaction threshold; the caller
	// should invoke Compact once the save is committed.
	CompactAfter bool
}

// StoreStats accumulates chunk-table activity over the store's lifetime.
type StoreStats struct {
	NewChunks     int64
	DupChunks     int64
	FreedChunks   int64
	NewChunkBytes int64
	FreedBytes    int64
	Compactions   int64
}

// Stats returns the accumulated chunk-table statistics.
func (s *Store) Stats() StoreStats { return s.stats }

// ChunkCount returns the number of distinct chunks resident in the store.
func (s *Store) ChunkCount() int { return len(s.chunks) }

// SetAutoCompact makes PlanDedupSave flag CompactAfter once a pod's
// incremental chain exceeds n manifests (0 disables auto-compaction).
func (s *Store) SetAutoCompact(n int) { s.autoCompact = n }

func (s *Store) chunkData(h mem.PageHash) []byte { return s.chunks[h].data }

// PlanDedupSave registers a hash-carrying image as a manifest plus
// chunk-table references and returns the plan describing the disk bytes
// still to be written. Pages whose hash is already resident cost nothing
// beyond a refcount; the image's page bytes back any chunks that are new.
func (s *Store) PlanDedupSave(img *Image) (*SavePlan, error) {
	m, err := manifestFromImage(img)
	if err != nil {
		return nil, err
	}
	mblob, err := m.Encode()
	if err != nil {
		return nil, err
	}
	plan := &SavePlan{Pod: img.PodName, Seq: img.Seq}
	plan.Stats.ManifestBytes = int64(len(mblob))
	for i := range img.Processes {
		p := &img.Processes[i]
		for j, h := range p.Memory.PageHashes {
			if _, ok := s.chunks[h]; ok {
				plan.Stats.DupChunks++
			} else {
				s.putChunk(h, p.Memory.Page(j))
				plan.Stats.NewChunks++
			}
			s.ref(h, 1)
		}
	}
	plan.Stats.NewChunkBytes = int64(plan.Stats.NewChunks) * mem.PageSize
	s.stats.DupChunks += int64(plan.Stats.DupChunks)

	s.putManifest(img.PodName, img.Seq, m, int64(len(mblob)))
	plan.TotalBytes = plan.Stats.TotalBytes()
	if s.autoCompact > 0 {
		if chain, cerr := s.chain(img.PodName, img.Seq); cerr == nil && len(chain) > s.autoCompact {
			plan.CompactAfter = true
		}
	}
	return plan, nil
}

// putChunk makes a block — a saved page, one received from another store,
// or one decoded from parity — resident, if it is not already; whoever
// needs it to stay takes the reference.
func (s *Store) putChunk(h mem.PageHash, data []byte) {
	if _, ok := s.chunks[h]; !ok {
		s.chunks[h] = chunkEntry{data: data}
		s.stats.NewChunks++
		s.stats.NewChunkBytes += int64(len(data))
	}
}

// CheckChunks reports the resident chunks of s whose bytes no longer
// hash to the key they are filed under. No store slice is ever written
// once planned (DESIGN §4.11), and a chunk adopted from a transfer is
// the sender's own slice, so one such write corrupts every store that
// shares it; this is the oracle that would see it. It hashes every
// chunk, so it belongs to end-of-run checks, not to a hot path.
func CheckChunks(s *Store) error {
	bad := 0
	var first mem.PageHash
	for h, e := range s.chunks {
		if len(e.data) == mem.PageSize && mem.HashBlock(e.data) == h {
			continue
		}
		if bad++; bad == 1 || h.Hi < first.Hi || h.Hi == first.Hi && h.Lo < first.Lo {
			first = h
		}
	}
	if bad > 0 {
		return fmt.Errorf("ckpt: %d of %d resident chunks no longer hash to their keys (lowest %v)", bad, len(s.chunks), first)
	}
	return nil
}

// ref moves chunk h's reference count by delta, freeing the chunk at zero.
// h must be resident: the table holds values, so writing an absent one
// back would silently invent the chunk a refcounting bug lost.
func (s *Store) ref(h mem.PageHash, delta int) {
	e, ok := s.chunks[h]
	if !ok {
		panic(fmt.Sprintf("ckpt: reference to chunk %v, which is not resident", h))
	}
	if e.refs += delta; e.refs != 0 {
		s.chunks[h] = e
		return
	}
	delete(s.chunks, h)
	s.stats.FreedChunks++
	s.stats.FreedBytes += mem.PageSize
}

// adoptManifest decodes a chain manifest received from another store,
// takes a chunk reference for each page it lists (the chunks must already
// be resident) and registers it — the tail of Adopt and ReconstructEC.
func (s *Store) adoptManifest(pod string, seq int, mblob []byte) error {
	m, err := DecodeManifest(mblob)
	if err != nil {
		return err
	}
	for i := range m.Procs {
		for _, ref := range m.Procs[i].Pages {
			if _, ok := s.chunks[ref.Hash]; !ok {
				return fmt.Errorf("ckpt: adopt %s/%d: missing chunk %v", pod, seq, ref.Hash)
			}
			s.ref(ref.Hash, 1)
			s.stats.DupChunks++
		}
	}
	s.putManifest(pod, seq, m, int64(len(mblob)))
	return nil
}

// putManifest registers a manifest whose chunk references are taken. They
// are taken before whatever the key held lets go of its own, so a chunk
// both share never touches refcount zero in between.
func (s *Store) putManifest(pod string, seq int, m *Manifest, size int64) {
	e := s.ensure(pod, seq)
	s.dropManifest(e)
	e.img = nil
	e.manifest, e.manifestBytes = m, size
}

// dropManifest unregisters the entry's manifest, if it has one, and
// releases its chunk references; chunks nothing else references are freed.
func (s *Store) dropManifest(e *entry) {
	if e.manifest == nil {
		return
	}
	e.manifest.eachRef(func(h mem.PageHash) { s.ref(h, -1) })
	e.manifest, e.manifestBytes = nil, 0
}

// foldManifests merges the manifest chain seqs (newest-first) into one
// full manifest, base first — metadata only, no page bytes move.
func (s *Store) foldManifests(pod string, seqs []int) (m *Manifest, err error) {
	m = s.get(pod, seqs[len(seqs)-1]).manifest
	for i := len(seqs) - 2; i >= 0 && err == nil; i-- {
		m, err = mergeManifests(m, s.get(pod, seqs[i]).manifest)
	}
	return m, err
}

// uniqueChunkBytes counts the distinct chunk bytes a restore of m must
// read: each referenced hash once, however many pages share it.
func uniqueChunkBytes(m *Manifest) int64 {
	seen := make(map[mem.PageHash]struct{})
	m.eachRef(func(h mem.PageHash) { seen[h] = struct{}{} })
	return int64(len(seen)) * mem.PageSize
}

// Compact folds the pod's newest incremental chain into one synthetic
// full manifest at the same sequence number, dropping the intermediate
// manifests and any chunks no manifest references anymore — the GC that
// bounds both store growth and restore latency after N incrementals.
// Only the new manifest is written to disk (chunks it references are
// already resident); done, if non-nil, receives the bytes written.
func (s *Store) Compact(pod string, done func(int64, error)) {
	finish := func(n int64, err error) {
		if done != nil {
			done(n, err)
		}
	}
	seq, ok := s.LatestSeq(pod)
	if !ok || s.get(pod, seq).manifest == nil {
		finish(0, fmt.Errorf("%w: %s (nothing to compact)", ErrNoImage, pod))
		return
	}
	chain, err := s.chain(pod, seq)
	if err != nil || len(chain) == 1 {
		finish(0, err) // broken, or already a single full manifest
		return
	}
	merged, err := s.foldManifests(pod, chain)
	if err != nil {
		finish(0, err)
		return
	}
	syn := *merged
	syn.Synthetic = true
	mblob, err := syn.Encode()
	if err != nil {
		finish(0, err)
		return
	}

	// The synthetic manifest takes its own references before the old
	// chain releases; shared chunks never hit refcount zero in between.
	syn.eachRef(func(h mem.PageHash) { s.ref(h, 1) })
	for i := len(chain) - 1; i >= 0; i-- {
		s.dropManifest(s.pods[pod][chain[i]])
		s.prune(pod, chain[i])
	}
	s.putManifest(pod, seq, &syn, int64(len(mblob)))
	s.stats.Compactions++

	sp := trace.FromEngine(s.disk.Engine()).Begin(s.disk.Name(), trace.PhaseCat, "compact",
		trace.Str("pod", pod), trace.Int("seq", int64(seq)),
		trace.Int("folded", int64(len(chain))),
		trace.Int("bytes", int64(len(mblob))))
	s.disk.Write(int64(len(mblob)), func() {
		sp.End()
		finish(int64(len(mblob)), nil)
	})
}
