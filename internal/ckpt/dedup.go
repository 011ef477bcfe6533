package ckpt

import (
	"fmt"

	"cruz/internal/mem"
	"cruz/internal/trace"
)

// SaveStats breaks down one deduplicated save: how many page chunks were
// new to the store versus already resident, and the bytes each accounts
// for. TotalBytes (manifest + new chunks) is what the disk actually
// writes.
type SaveStats struct {
	ManifestBytes int64
	NewChunkBytes int64
	DedupedBytes  int64
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
	DedupedBytes  int64
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

func (s *Store) chunkData(h mem.PageHash) []byte {
	if e, ok := s.chunks[h]; ok {
		return e.data
	}
	return nil
}

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
			if e, ok := s.chunks[h]; ok {
				e.refs++
				plan.Stats.DupChunks++
				plan.Stats.DedupedBytes += mem.PageSize
			} else {
				s.chunks[h] = &chunkEntry{data: p.Memory.Page(j), refs: 1}
				plan.Stats.NewChunks++
				plan.Stats.NewChunkBytes += mem.PageSize
			}
		}
	}
	s.stats.NewChunks += int64(plan.Stats.NewChunks)
	s.stats.DupChunks += int64(plan.Stats.DupChunks)
	s.stats.NewChunkBytes += plan.Stats.NewChunkBytes
	s.stats.DedupedBytes += plan.Stats.DedupedBytes

	s.putManifest(img.PodName, img.Seq, m, int64(len(mblob)))
	plan.TotalBytes = plan.Stats.TotalBytes()
	if s.autoCompact > 0 {
		if chain, cerr := s.manifestChain(img.PodName, img.Seq); cerr == nil && len(chain) > s.autoCompact {
			plan.CompactAfter = true
		}
	}
	return plan, nil
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
			e, ok := s.chunks[ref.Hash]
			if !ok {
				return fmt.Errorf("ckpt: adopt %s/%d: missing chunk %v", pod, seq, ref.Hash)
			}
			e.refs++
			s.stats.DupChunks++
		}
	}
	s.putManifest(pod, seq, m, int64(len(mblob)))
	return nil
}

// putManifest registers a manifest whose chunk references are taken.
func (s *Store) putManifest(pod string, seq int, m *Manifest, size int64) {
	if s.manifests[pod] == nil {
		s.manifests[pod] = make(map[int]*Manifest)
		s.manifestBytes[pod] = make(map[int]int64)
	}
	s.manifests[pod][seq] = m
	s.manifestBytes[pod][seq] = size
	if seq > s.latest[pod] {
		s.latest[pod] = seq
	}
}

// dropManifest unregisters a manifest, if stored, and releases its chunk
// references; chunks nothing else references are freed.
func (s *Store) dropManifest(pod string, seq int) {
	m, ok := s.manifests[pod][seq]
	if !ok {
		return
	}
	for i := range m.Procs {
		for _, ref := range m.Procs[i].Pages {
			s.releaseChunk(ref.Hash)
		}
	}
	delete(s.manifests[pod], seq)
	delete(s.manifestBytes[pod], seq)
}

// manifestChain walks seq back to its full base, returning the sequence
// numbers newest-first.
func (s *Store) manifestChain(pod string, seq int) ([]int, error) {
	metas := s.manifests[pod]
	var chain []int
	cur := seq
	for {
		m, ok := metas[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %s/%d (manifest chain from %d)", ErrNoImage, pod, cur, seq)
		}
		chain = append(chain, cur)
		if !m.Incremental {
			return chain, nil
		}
		cur = m.BaseSeq
	}
}

// mergedManifest folds the chain ending at seq into one full manifest.
func (s *Store) mergedManifest(pod string, seq int) (*Manifest, []int, error) {
	chain, err := s.manifestChain(pod, seq)
	if err != nil {
		return nil, nil, err
	}
	merged := s.manifests[pod][chain[len(chain)-1]]
	for i := len(chain) - 2; i >= 0; i-- {
		merged, err = mergeManifests(merged, s.manifests[pod][chain[i]])
		if err != nil {
			return nil, nil, err
		}
	}
	return merged, chain, nil
}

// uniqueChunkBytes counts the distinct chunk bytes a restore of m must
// read: each referenced hash once, however many pages share it.
func uniqueChunkBytes(m *Manifest) int64 {
	seen := make(map[mem.PageHash]struct{})
	for i := range m.Procs {
		for _, ref := range m.Procs[i].Pages {
			seen[ref.Hash] = struct{}{}
		}
	}
	return int64(len(seen)) * mem.PageSize
}

// loadManifest resolves a manifest-form checkpoint into an image. With
// merged set, the whole incremental chain folds first (metadata only)
// and the disk read covers each chain manifest plus every distinct
// chunk the final page set needs — not the O(chain) page bytes the blob
// path re-reads.
func (s *Store) loadManifest(pod string, seq int, merged bool, ctx trace.SpanContext, done func(*Image, error)) {
	var (
		m     *Manifest
		chain []int
		err   error
	)
	if merged {
		m, chain, err = s.mergedManifest(pod, seq)
	} else {
		m = s.manifests[pod][seq]
		chain = []int{seq}
	}
	if err != nil {
		done(nil, err)
		return
	}
	var total int64
	for _, cs := range chain {
		total += s.manifestBytes[pod][cs]
	}
	total += uniqueChunkBytes(m)
	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.BeginChild(ctx, s.disk.Name(), "ckpt", "store.load",
			trace.Str("pod", pod), trace.Int("seq", int64(seq)),
			trace.Int("bytes", total), trace.Int("chain", int64(len(chain))))
	}
	s.disk.Read(total, func() {
		sp.End()
		img, ierr := imageFromManifest(m, s.chunkData)
		done(img, ierr)
	})
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
	seq, ok := s.latest[pod]
	if !ok || s.manifests[pod][seq] == nil {
		finish(0, fmt.Errorf("%w: %s (nothing to compact)", ErrNoImage, pod))
		return
	}
	merged, chain, err := s.mergedManifest(pod, seq)
	if err != nil {
		finish(0, err)
		return
	}
	if len(chain) == 1 && !s.manifests[pod][seq].Incremental {
		finish(0, nil) // already a single full manifest
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
	for i := range syn.Procs {
		for _, ref := range syn.Procs[i].Pages {
			s.chunks[ref.Hash].refs++
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		s.dropManifest(pod, chain[i])
	}
	s.putManifest(pod, seq, &syn, int64(len(mblob)))
	s.stats.Compactions++

	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.Begin(s.disk.Name(), trace.PhaseCat, "compact",
			trace.Str("pod", pod), trace.Int("seq", int64(seq)),
			trace.Int("folded", int64(len(chain))),
			trace.Int("bytes", int64(len(mblob))))
	}
	s.disk.Write(int64(len(mblob)), func() {
		sp.End()
		finish(int64(len(mblob)), nil)
	})
}
