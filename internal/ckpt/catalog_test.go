package ckpt

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/trace"
)

// TestStoreSurfacePinned lists *Store's exported methods exactly, so the
// surface cannot re-accrete a method per stored form (it was 26: three
// loaders, two Missings, two Adopts, a one-call save and two test-only
// accessors). A new exported method edits this list and says here which
// one it replaces.
func TestStoreSurfacePinned(t *testing.T) {
	want := []string{
		"Adopt", "BuildTransfer", "Cached", "ChunkCount", "Compact", "Discard", "Disk",
		"ECServe", "ExportOffer", "HasBase", "HasSeq", "LatestSeq", "Load", "Missing",
		"PlanDedupSave", "PlanECSave", "PlanSave", "ReconstructEC", "SetAutoCompact", "Stats",
	}
	var got []string
	typ := reflect.TypeOf((*Store)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) || len(got) > 20 {
		t.Fatalf("*Store exports %d methods:\n %v\nwant these %d (at most 20):\n %v", len(got), got, len(want), want)
	}
}

// catalogModel drives one store of the model test and remembers which
// sequences a checkpoint should be stored under, per pod.
type catalogModel struct {
	s      *Store
	stored map[string]map[int]bool
}

func (m *catalogModel) put(pod string, seqs ...int) {
	if m.stored[pod] == nil {
		m.stored[pod] = make(map[int]bool)
	}
	for _, seq := range seqs {
		m.stored[pod][seq] = true
	}
}

// modelImage makes a one-process image of a few pages drawn from a small
// pool of contents, so saves dedupe against each other and across pods.
func modelImage(rng *rand.Rand, pool [][]byte, pod string, seq, base int) *Image {
	var mi MemImage
	for pn := uint64(0); pn < 12; pn++ {
		if rng.Intn(3) == 0 {
			page := pool[rng.Intn(len(pool))]
			mi.addPage(pn, page)
			mi.PageHashes = append(mi.PageHashes, mem.HashBlock(page))
		}
	}
	return &Image{PodName: pod, Seq: seq, BaseSeq: base, Incremental: base != 0,
		Processes: []ProcImage{{VPID: 1, Name: "w", Memory: mi}}}
}

// chainStands reports whether the manifest chain set was striped from is
// still what s stores: a compaction, discard or replacement since then
// leaves a set that only supersession or Discard should touch again.
func chainStands(s *Store, set *ECSet) bool {
	offer, err := s.ExportOffer(set.Pod, set.Seq)
	return err == nil && offer.Dedup && slices.Equal(offer.Chain, set.Chain)
}

// TestCatalogInvariantsUnderRandomOps drives a pair of stores through a
// seeded mix of every operation that touches the catalog — saves in both
// forms, striping, chain and shard replication between the two, discards,
// compaction, reconstruction — and after each step checks what must hold
// of a store whatever happened to it: chunk refcounts are exactly the
// references its live manifests, shard sets and held subsets make (so a
// superseded or replaced one holds none, nothing resident is unreferenced
// and nothing referenced is absent); no entry is left empty; LatestSeq is
// the newest sequence a checkpoint is stored under; and HasSeq answers
// yes exactly when a merged Load succeeds.
func TestCatalogInvariantsUnderRandomOps(t *testing.T) {
	r := newRig(t, 2)
	rng := rand.New(rand.NewSource(19))
	pool := ecTestBlocks(19, 24)
	pods := []string{"p", "q"}
	ec := ECParams{M: 2, R: 1}
	stores := []*catalogModel{
		{s: r.store, stored: make(map[string]map[int]bool)},
		{s: NewStore(r.kernels[1].Disk()), stored: make(map[string]map[int]bool)},
	}
	nextSeq := 0

	check := func(step int, op string, sweep bool) {
		t.Helper()
		for i, m := range stores {
			refs := make(map[mem.PageHash]int)
			for pod, entries := range m.s.pods {
				latest := 0
				for seq, e := range entries {
					if e.empty() {
						t.Fatalf("step %d (%s): store %d left %s/%d empty", step, op, i, pod, seq)
					}
					if e.img != nil && e.manifest != nil {
						t.Fatalf("step %d (%s): store %d holds %s/%d in both forms", step, op, i, pod, seq)
					}
					if e.stored() != m.stored[pod][seq] {
						t.Fatalf("step %d (%s): store %d %s/%d stored = %v, want %v", step, op, i, pod, seq, e.stored(), m.stored[pod][seq])
					}
					if e.stored() && seq > latest {
						latest = seq
					}
					if e.manifest != nil {
						for _, p := range e.manifest.Procs {
							for _, ref := range p.Pages {
								refs[ref.Hash]++
							}
						}
					}
					if e.set != nil {
						for _, st := range e.set.Stripes {
							for _, h := range append(slices.Clone(st.Data), st.Parity...) {
								refs[h]++
							}
						}
					}
					if e.held != nil {
						for _, h := range e.held.HolderHashes(e.holder) {
							refs[h]++
						}
					}
				}
				if got, ok := m.s.LatestSeq(pod); got != latest || ok != (latest != 0) {
					t.Fatalf("step %d (%s): store %d LatestSeq(%s) = %d, %v; newest stored is %d", step, op, i, pod, got, ok, latest)
				}
			}
			for pod, seqs := range m.stored {
				for seq, want := range seqs {
					if want && !m.s.get(pod, seq).stored() {
						t.Fatalf("step %d (%s): store %d lost %s/%d", step, op, i, pod, seq)
					}
				}
			}
			for h, e := range m.s.chunks {
				if e.refs != refs[h] || e.refs == 0 {
					t.Fatalf("step %d (%s): store %d chunk %v has %d refs, %d references counted", step, op, i, h, e.refs, refs[h])
				}
				delete(refs, h)
			}
			if len(refs) != 0 {
				t.Fatalf("step %d (%s): store %d references %d absent chunks", step, op, i, len(refs))
			}
		}
		if !sweep {
			return
		}
		type probe struct {
			store, seq int
			pod        string
			err        error
		}
		var probes []*probe
		for i, m := range stores {
			for pod, seqs := range m.stored {
				for seq := range seqs {
					p := &probe{store: i, pod: pod, seq: seq}
					probes = append(probes, p)
					m.s.Load(pod, seq, true, trace.SpanContext{}, func(img *Image, err error) {
						if p.err = err; err == nil && (img.Incremental || img.Seq != seq) {
							t.Errorf("step %d: store %d merged load of %s/%d returned %+v", step, i, pod, seq, img)
						}
					})
				}
			}
		}
		r.run(100 * sim.Second)
		for _, p := range probes {
			if has := stores[p.store].s.HasSeq(p.pod, p.seq); has != (p.err == nil) {
				t.Fatalf("step %d: store %d HasSeq(%s/%d) = %v but merged Load: %v", step, p.store, p.pod, p.seq, has, p.err)
			}
		}
	}

	for step := 0; step < 600; step++ {
		a, b := stores[0], stores[1]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		pod := pods[rng.Intn(len(pods))]
		latest, _ := a.s.LatestSeq(pod)
		var op string
		switch rng.Intn(12) {
		case 0, 1, 2: // save, in either form, chained when the base allows it
			dedup := rng.Intn(3) > 0
			nextSeq++
			base := 0
			if rng.Intn(3) > 0 && a.s.HasBase(pod, latest, dedup) {
				base = latest
			}
			img, plan := modelImage(rng, pool, pod, nextSeq, base), a.s.PlanSave
			if op = "save"; dedup {
				op, plan = "dedup save", a.s.PlanDedupSave
			}
			if _, err := plan(img); err != nil {
				t.Fatalf("step %d: %s: %v", step, op, err)
			}
			a.put(pod, nextSeq)
		case 3, 4: // stripe the newest checkpoint; blob form cannot
			op = "stripe"
			_, err := a.s.PlanECSave(pod, latest, ec)
			if (err == nil) != a.s.HasBase(pod, latest, true) {
				t.Fatalf("step %d: PlanECSave(%s/%d): %v", step, pod, latest, err)
			}
			for seq, e := range a.s.pods[pod] {
				if err == nil && seq < latest && e.set != nil {
					t.Fatalf("step %d: set %s/%d not superseded by %d", step, pod, seq, latest)
				}
			}
		case 5: // replicate a chain to the peer
			op = "replicate"
			offer, err := a.s.ExportOffer(pod, latest)
			if err != nil {
				break
			}
			seqs, hashes := b.s.Missing(offer)
			tx, err := a.s.BuildTransfer(pod, latest, seqs, hashes)
			if err != nil {
				t.Fatalf("step %d: BuildTransfer: %v", step, err)
			}
			b.s.Adopt(tx, func(_ int64, err error) {
				if err != nil {
					t.Fatalf("step %d: Adopt: %v", step, err)
				}
			})
			b.put(pod, seqs...)
			if s2, h2 := b.s.Missing(offer); len(s2)+len(h2) != 0 {
				t.Fatalf("step %d: peer still misses %v, %d chunks after adopting", step, s2, len(h2))
			}
		case 6, 7: // hand the peer one holder's shard subset
			op = "distribute"
			set := a.s.get(pod, latest).set
			if set == nil || !chainStands(a.s, set) {
				break
			}
			holder := rng.Intn(set.Shards())
			offer := &Offer{Pod: pod, Seq: latest, Chain: set.Chain, Dedup: true, Hashes: set.HolderHashes(holder), Shard: true}
			seqs, hashes := b.s.Missing(offer)
			tx, err := a.s.BuildTransfer(pod, latest, seqs, hashes)
			if err != nil {
				t.Fatalf("step %d: BuildTransfer: %v", step, err)
			}
			tx.Set, tx.Holder = set, holder
			b.s.Adopt(tx, func(_ int64, err error) {
				if err != nil {
					t.Fatalf("step %d: shard Adopt: %v", step, err)
				}
			})
			for seq, e := range b.s.pods[pod] {
				if seq < latest && e.held != nil {
					t.Fatalf("step %d: held subset %s/%d not superseded by %d", step, pod, seq, latest)
				}
			}
			if s2, h2 := b.s.Missing(offer); len(s2)+len(h2) != 0 {
				t.Fatalf("step %d: holder still misses %v, %d blocks after adopting", step, s2, len(h2))
			}
		case 8: // discard a sequence, stored or not
			op = "discard"
			seq := 1 + rng.Intn(nextSeq+1)
			a.s.Discard(pod, seq)
			delete(a.stored[pod], seq)
		case 9:
			op = "compact"
			offer, err := a.s.ExportOffer(pod, latest)
			a.s.Compact(pod, nil)
			if err == nil && offer.Dedup {
				for _, seq := range offer.Chain[1:] {
					delete(a.stored[pod], seq)
				}
			}
		case 10, 11: // rebuild on the peer from what it holds plus M-1 more holders
			op = "reconstruct"
			held, err := b.s.ECServe(pod, latest)
			set := a.s.get(pod, latest).set
			if err != nil || set == nil || !reflect.DeepEqual(set, held.Set) || !chainStands(a.s, set) {
				break
			}
			chain, err := a.s.BuildTransfer(pod, latest, set.Chain, nil)
			if err != nil {
				t.Fatalf("step %d: BuildTransfer: %v", step, err)
			}
			blocks := held.Chunks
			for h := 1; h < set.M; h++ {
				for _, hash := range set.HolderHashes((held.Holder + h) % set.Shards()) {
					blocks = append(blocks, ChunkData{Hash: hash, Data: a.s.chunks[hash].data})
				}
			}
			if _, err := b.s.ReconstructEC(set, chain.Manifests, blocks); err != nil {
				t.Fatalf("step %d: ReconstructEC: %v", step, err)
			}
			b.put(pod, set.Chain...)
			if !b.s.HasSeq(pod, latest) {
				t.Fatalf("step %d: %s/%d not restorable after reconstruction", step, pod, latest)
			}
		}
		r.run(10 * sim.Second)
		check(step, op, step%40 == 39)
	}
}

// TestSaveReplacesWhatTheKeyHeld: an entry holds a checkpoint in one form.
// Saving under an occupied (pod, seq) — in the other form, or the same —
// replaces what was there and lets go of the chunk references it held.
func TestSaveReplacesWhatTheKeyHeld(t *testing.T) {
	r := newRig(t, 1)
	rng := rand.New(rand.NewSource(5))
	pool := ecTestBlocks(5, 16)
	distinct := func(img *Image) int {
		seen := make(map[mem.PageHash]bool)
		for _, h := range img.Processes[0].Memory.PageHashes {
			seen[h] = true
		}
		return len(seen)
	}
	first := modelImage(rng, pool, "p", 1, 0)
	r.saveDeduped(r.store, first)
	if _, ok := r.store.Cached("p", 1); ok || r.store.ChunkCount() != distinct(first) {
		t.Fatalf("dedup save: cached %v, %d chunks, want none and %d", ok, r.store.ChunkCount(), distinct(first))
	}
	second := modelImage(rng, pool, "p", 1, 0)
	r.saveDeduped(r.store, second)
	if got := r.store.ChunkCount(); got != distinct(second) {
		t.Fatalf("dedup save over a dedup save: %d chunks resident, want the new manifest's %d", got, distinct(second))
	}
	r.saveBlob(r.store, first)
	if _, ok := r.store.Cached("p", 1); !ok || r.store.ChunkCount() != 0 || r.store.get("p", 1).manifest != nil {
		t.Fatalf("blob save over a dedup save: cached %v, %d chunks, want the blob alone", ok, r.store.ChunkCount())
	}
	r.saveDeduped(r.store, second)
	if e := r.store.get("p", 1); e.img != nil || !r.store.HasBase("p", 1, true) {
		t.Fatalf("dedup save over a blob save left %+v", e)
	}
}

// TestChainRejectsBaseNotEarlier: a manifest off the wire can name itself
// (or a later sequence) as its base; walking that must end in an error.
func TestChainRejectsBaseNotEarlier(t *testing.T) {
	r := newRig(t, 1)
	rng := rand.New(rand.NewSource(5))
	r.saveDeduped(r.store, modelImage(rng, ecTestBlocks(5, 4), "p", 3, 3))
	if r.store.HasSeq("p", 3) {
		t.Fatal("a checkpoint chained onto itself counts as restorable")
	}
	if _, err := r.store.ExportOffer("p", 3); !errors.Is(err, ErrNoImage) {
		t.Fatalf("ExportOffer of a self-based checkpoint: %v", err)
	}
}
