package ckpt

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// ecRand is a tiny deterministic generator for codec test payloads.
type ecRand uint64

func (r *ecRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = ecRand(x)
	return x
}

func ecTestBlocks(seed uint64, n int) [][]byte {
	r := ecRand(seed | 1)
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, mem.PageSize)
		for j := 0; j < mem.PageSize; j += 8 {
			v := r.next()
			for k := 0; k < 8; k++ {
				b[j+k] = byte(v >> (8 * k))
			}
		}
		out[i] = b
	}
	return out
}

// ecParity runs ecEncodeStripe over data blocks given as bytes and returns
// its parity blocks.
func ecParity(enc gfMatrix, p ECParams, data [][]byte) [][]byte {
	chunks := make(map[mem.PageHash]chunkEntry)
	hashes := make([]mem.PageHash, len(data))
	for i, d := range data {
		hashes[i] = mem.HashBlock(d)
		chunks[hashes[i]] = chunkEntry{data: d}
	}
	buf := ecEncodeStripe(enc, p, hashes, chunks)
	parity := make([][]byte, p.R)
	for j := range parity {
		parity[j] = buf[j*mem.PageSize : (j+1)*mem.PageSize]
	}
	return parity
}

func TestGFFieldSanity(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul[a][1] != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		inv := gfDiv(1, byte(a))
		if gfMul[a][inv] != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
	// Distributivity spot checks across the table diagonal.
	for a := 3; a < 256; a += 7 {
		for b := 5; b < 256; b += 11 {
			c := byte((a * 31) & 0xff)
			left := gfMul[a][b^int(c)&0xff]
			right := gfMul[a][b] ^ gfMul[a][c]
			if left != right {
				t.Fatalf("distributivity fails at a=%d b=%d c=%d", a, b, c)
			}
		}
	}
}

func TestECCodecAnyMLosses(t *testing.T) {
	for _, p := range []ECParams{{M: 2, R: 1}, {M: 4, R: 2}, {M: 5, R: 3}} {
		enc := ecEncodeMatrix(p)
		data := ecTestBlocks(uint64(p.M*100+p.R), p.M)
		parity := ecParity(enc, p, data)
		total := p.M + p.R
		shard := func(i int) []byte {
			if i < p.M {
				return data[i]
			}
			return parity[i-p.M]
		}
		// Try every m-subset of surviving shards (small totals, cheap).
		var trySubset func(start int, have []int)
		trySubset = func(start int, have []int) {
			if len(have) == p.M {
				blocks := make([][]byte, p.M)
				for k, idx := range have {
					blocks[k] = shard(idx)
				}
				got, err := ecDecodeStripe(enc, p, append([]int(nil), have...), blocks)
				if err != nil {
					t.Fatalf("%v: decode from %v: %v", p, have, err)
				}
				for i := range data {
					if !reflect.DeepEqual(got[i], data[i]) {
						t.Fatalf("%v: decode from %v: data block %d differs", p, have, i)
					}
				}
				return
			}
			for i := start; i < total; i++ {
				trySubset(i+1, append(have, i))
			}
		}
		trySubset(0, nil)

		// Fewer than m shards must fail.
		if _, err := ecDecodeStripe(enc, p, []int{0}, [][]byte{data[0]}); !errors.Is(err, ErrECShards) {
			t.Fatalf("%v: want ErrECShards with 1 shard, got %v", p, err)
		}
	}
}

func TestECCodecPaddedTail(t *testing.T) {
	p := ECParams{M: 4, R: 2}
	enc := ecEncodeMatrix(p)
	// Short stripe: only 2 real blocks, positions 2..3 implicit zeros.
	data := ecTestBlocks(7, 2)
	parity := ecParity(enc, p, data)
	// Lose both real data blocks; decode from padding + parity.
	have := []int{2, 3, 4, 5}
	blocks := [][]byte{nil, nil, parity[0], parity[1]}
	got, err := ecDecodeStripe(enc, p, have, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], data[0]) || !reflect.DeepEqual(got[1], data[1]) {
		t.Fatal("padded-tail decode does not recover the real blocks")
	}
	zero := make([]byte, mem.PageSize)
	if !reflect.DeepEqual(got[2], zero) || !reflect.DeepEqual(got[3], zero) {
		t.Fatal("padding positions did not decode to zero blocks")
	}
}

func TestECParamsValidate(t *testing.T) {
	p := ECParams{M: 4, R: 2}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate(4+2) = %v", err)
	}
	for _, bad := range []ECParams{{}, {M: 4}, {R: 2}, {M: 300, R: 1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%v) succeeded", bad)
		}
	}
	if p.String() != "4+2" {
		t.Fatalf("String() = %q", p.String())
	}
}

// ecCaptureChain checkpoints a memWorker pod twice (full + incremental)
// into the rig store's dedup form and returns the merged ground truth.
func ecCaptureChain(t *testing.T, r *rig, pod *zap.Pod) *Image {
	t.Helper()
	img1 := r.stopAndCapture(pod, 1, Options{Hashes: true})
	r.saveDeduped(r.store, img1)
	pod.Resume()
	r.run(30 * sim.Millisecond)
	img2 := r.stopAndCapture(pod, 2, Options{Hashes: true, Incremental: true})
	r.saveDeduped(r.store, img2)
	merged, err := Merge(img1, img2)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

func TestECSaveReconstructRestore(t *testing.T) {
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "ecpod", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 48 * mem.PageSize})
	r.run(30 * sim.Millisecond)
	truth := ecCaptureChain(t, r, pod)
	pod.Destroy()

	p := ECParams{M: 4, R: 2}
	plan := r.saveEC(r.store, "ecpod", 2, p)
	set := plan.Set
	if set.M != 4 || set.R != 2 || len(set.Chain) != 2 {
		t.Fatalf("unexpected set shape: %+v", set)
	}
	if got := plan.ParityBytes; got <= 0 || got > plan.DataBytes {
		t.Fatalf("parity bytes %d out of range (data %d)", got, plan.DataBytes)
	}

	// Simulate distribution: each of the m+r holders takes its rotated
	// shard subset; no holder's set may contain two shards of a stripe
	// (guaranteed by rotation) and together they cover everything.
	chain, err := r.store.BuildTransfer("ecpod", 2, set.Chain, nil)
	if err != nil {
		t.Fatal(err)
	}
	manifests := chain.Manifests
	holderBlocks := make([][]ChunkData, set.Shards())
	for h := 0; h < set.Shards(); h++ {
		for _, hash := range set.HolderHashes(h) {
			holderBlocks[h] = append(holderBlocks[h], ChunkData{Hash: hash, Data: r.store.chunks[hash].data})
		}
	}

	// Kill r holders (any r): reconstruct from every m-survivor choice of
	// a rotating window to cover varied index mixes.
	for kill := 0; kill < set.Shards(); kill++ {
		target := NewStore(r.kernels[1].Disk())
		var blocks []ChunkData
		for h := 0; h < set.Shards(); h++ {
			if h == kill || h == (kill+1)%set.Shards() {
				continue // two dead holders
			}
			blocks = append(blocks, holderBlocks[h]...)
		}
		rec, err := target.ReconstructEC(set, manifests, blocks)
		if err != nil {
			t.Fatalf("kill %d: %v", kill, err)
		}
		if rec.DecodedStripes == 0 {
			t.Fatalf("kill %d: expected at least one decoded stripe", kill)
		}
		var img *Image
		target.Load("ecpod", 2, true, trace.SpanContext{}, func(i *Image, err error) {
			if err != nil {
				t.Errorf("Load merged: %v", err)
			}
			img = i
		})
		r.run(10 * sim.Second)
		if img == nil {
			t.Fatal("load never completed")
		}
		want, got := normalizeImage(t, truth), normalizeImage(t, img)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("kill %d: reconstructed image differs from ground truth", kill)
		}
	}

	// With only m-1 surviving holders a stripe cannot be rebuilt.
	target := NewStore(r.kernels[1].Disk())
	var blocks []ChunkData
	for h := 0; h < set.M-1; h++ {
		blocks = append(blocks, holderBlocks[h]...)
	}
	if _, err := target.ReconstructEC(set, manifests, blocks); !errors.Is(err, ErrECShards) {
		t.Fatalf("want ErrECShards with m-1 holders, got %v", err)
	}
}

// TestECCompactKeepsStripeChunks is the satellite-2 regression: Compact
// folds a chain and frees chunks no manifest references — but a chunk
// covered by a live EC stripe must survive, or reconstruction of the
// stripe's other chunks breaks. The EC set's stripe-granularity
// references keep it resident; discarding the set's sequence releases it.
func TestECCompactKeepsStripeChunks(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "gc", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 32 * mem.PageSize})
	r.run(30 * sim.Millisecond)
	ecCaptureChain(t, r, pod)
	pod.Destroy()

	set := r.saveEC(r.store, "gc", 1, ECParams{M: 4, R: 2}).Set

	// Compact folds seq 1+2 into a synthetic full manifest at seq 2.
	// Pages overwritten between the captures drop out of the merged
	// manifest — but their chunks sit in live stripes of the seq-1 set.
	r.store.Compact("gc", nil)
	r.run(10 * sim.Second)
	for i := range set.Stripes {
		for _, h := range set.Stripes[i].Data {
			if _, ok := r.store.chunks[h]; !ok {
				t.Fatalf("stripe %d: data chunk %v freed while its EC set is live", i, h)
			}
		}
		for _, h := range set.Stripes[i].Parity {
			if _, ok := r.store.chunks[h]; !ok {
				t.Fatalf("stripe %d: parity block %v freed while its EC set is live", i, h)
			}
		}
	}

	// Seq 1 now holds nothing but the set. Discarding it releases the
	// stripe references; chunks only the folded-away seq-1 manifest needed
	// are now freed, and the entry goes with them.
	before := r.store.ChunkCount()
	r.store.Discard("gc", 1)
	if after := r.store.ChunkCount(); after >= before {
		t.Fatalf("dropping the set freed nothing (chunks %d -> %d)", before, after)
	}
	if _, ok := r.store.pods["gc"][1]; ok {
		t.Fatal("an entry with nothing stored under it was left in the catalog")
	}
	// Everything the live (compacted) manifest references must remain.
	live := r.store.get("gc", 2).manifest
	for i := range live.Procs {
		for _, ref := range live.Procs[i].Pages {
			if _, ok := r.store.chunks[ref.Hash]; !ok {
				t.Fatalf("live manifest chunk %v freed with the set", ref.Hash)
			}
		}
	}
}

func TestECSupersedeAndDiscard(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "sup", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: 16 * mem.PageSize})
	r.run(30 * sim.Millisecond)
	ecCaptureChain(t, r, pod)
	pod.Destroy()

	r.saveEC(r.store, "sup", 1, ECParams{M: 2, R: 1})
	r.saveEC(r.store, "sup", 2, ECParams{M: 2, R: 1}) // supersedes seq 1
	if r.store.get("sup", 1).set != nil {
		t.Fatal("seq-1 EC set not superseded by seq-2 save")
	}
	if r.store.get("sup", 2).set == nil {
		t.Fatal("seq-2 EC set missing")
	}
	// Discarding the sequence drops its set and releases references: only
	// the seq-1 manifest's chunks stay resident, parity included in none.
	r.store.Discard("sup", 2)
	if r.store.get("sup", 2).set != nil {
		t.Fatal("Discard left the EC set registered")
	}
	want := make(map[mem.PageHash]bool)
	for _, p := range r.store.get("sup", 1).manifest.Procs {
		for _, ref := range p.Pages {
			want[ref.Hash] = true
		}
	}
	if got := r.store.ChunkCount(); got != len(want) {
		t.Fatalf("%d chunks resident after the discard, want the %d seq 1 references", got, len(want))
	}
}

// hostileECSets are shard manifests that gob decodes happily but whose
// parameters or stripe shapes would later divide by zero (ShardIndex) or
// index out of range (shardHash). They arrive in repl-data, off the wire.
func hostileECSets() []*ECSet {
	h := func(n int) []mem.PageHash { return make([]mem.PageHash, n) }
	return []*ECSet{
		{Pod: "p", Seq: 1, Stripes: []ECStripe{{}}},                                           // M+R = 0
		{Pod: "p", Seq: 1, M: 200, R: 100, Stripes: []ECStripe{{Data: h(1), Parity: h(100)}}}, // past GF(256)
		{Pod: "p", Seq: 1, M: 2, R: 1, Stripes: []ECStripe{{Data: h(3), Parity: h(1)}}},       // wide stripe
		{Pod: "p", Seq: 1, M: 2, R: 1, Stripes: []ECStripe{{Data: h(2)}}},                     // no parity
	}
}

// TestHostileShardSetsAreRejected: neither a misshapen shard manifest nor
// an out-of-ring holder position — both travel in repl-data — may panic
// the agent. DecodeECSet refuses the first; the shard half of Adopt
// refuses the second (and a zero-shard set handed to it directly), with
// an error through done and the store untouched.
func TestHostileShardSetsAreRejected(t *testing.T) {
	for i, set := range hostileECSets() {
		blob, err := set.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeECSet(blob); err == nil {
			t.Errorf("hostile set %d decoded: %+v", i, got)
		}
	}
	r := newRig(t, 1)
	good := sampleECSet()
	for _, tc := range []struct {
		name   string
		set    *ECSet
		holder int
	}{
		{"zero shards", hostileECSets()[0], 0},        // was: integer divide by zero
		{"negative holder", good, -1},                 // was: index out of range [-1]
		{"holder past the ring", good, good.Shards()}, // aliased holder 0
	} {
		var got error
		r.store.Adopt(&Transfer{Pod: "p", Seq: 1, Set: tc.set, Holder: tc.holder, TotalBytes: 1}, func(_ int64, err error) { got = err })
		if got == nil || len(r.store.pods["p"]) != 0 {
			t.Errorf("%s: Adopt reported %v and left %d entries", tc.name, got, len(r.store.pods["p"]))
		}
	}
}

// TestPlanECSaveReusesUnchangedStripes: a stripe whose data chunks are
// those the superseded set striped keeps that set's parity instead of
// being encoded again, and nothing the plan reports or references moves:
// the set encodes byte for byte as a fresh store's plan of the same chain,
// ParityBytes counts only the changed stripe's new blocks, and every
// reused block is counted a duplicate and referenced once, as an encoded
// one found resident is.
func TestPlanECSaveReusesUnchangedStripes(t *testing.T) {
	p := ECParams{M: 4, R: 2}
	buffer := uint64(p.R * mem.PageSize) // one stripe's parity
	pages := ecTestBlocks(7, 8*p.M)
	changed := slices.Clone(pages)
	changed[2*p.M+1] = ecTestBlocks(8, 1)[0] // stripe 2 only
	s := NewStore(nil)
	putPages(s, 1, pages)
	old, err := s.PlanECSave("ec", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	oldParity := slices.Clone(old.Set.Stripes[2].Parity)

	fresh := NewStore(nil)
	putPages(fresh, 2, changed)
	want, err := fresh.PlanECSave("ec", 2, p)
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := want.Set.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plan := func(what string, maxAlloc uint64) *ECPlan {
		t.Helper()
		var got *ECPlan
		dups := s.Stats().DupChunks
		alloc := allocated(func() { got, err = s.PlanECSave("ec", 2, p) })
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if blob, err := got.Set.Encode(); err != nil || !bytes.Equal(blob, wantBlob) {
			t.Fatalf("%s: the set encodes unlike a fresh store's plan of the chain (%v)", what, err)
		}
		if !raceBuild && alloc > maxAlloc {
			t.Errorf("%s allocated %d bytes, want at most %d", what, alloc, maxAlloc)
		}
		for i, st := range got.Set.Stripes {
			for _, h := range st.Parity {
				if e, ok := s.chunks[h]; !ok || e.refs != 1 {
					t.Fatalf("%s: stripe %d parity block %v resident %v with %d references, want 1", what, i, h, ok, e.refs)
				}
			}
		}
		if newBlocks := int64(got.ParityBytes / mem.PageSize); s.Stats().DupChunks-dups != int64(len(got.Set.Stripes)*p.R)-newBlocks {
			t.Errorf("%s counted %d duplicate parity blocks beside %d new ones", what, s.Stats().DupChunks-dups, newBlocks)
		}
		return got
	}

	putPages(s, 2, changed)
	if got := plan("a plan with stripe 2 changed", 2*buffer); got.ParityBytes != int64(buffer) {
		t.Errorf("a plan with stripe 2 changed wrote %d parity bytes, want %d", got.ParityBytes, buffer)
	}
	for _, h := range oldParity {
		if _, ok := s.chunks[h]; ok {
			t.Errorf("stripe 2's superseded parity block %v is still resident", h)
		}
	}
	if got := plan("a re-plan of an unchanged chain", buffer-1); got.ParityBytes != 0 {
		t.Errorf("a re-plan of an unchanged chain wrote %d parity bytes", got.ParityBytes)
	}

	// Lose stripe 5's parity blocks, references and all: the re-plan must
	// encode that stripe again. The superseded set still lists them, so
	// its drop releases the references the re-encoded blocks took; give
	// them back to leave the store as consistent as before.
	lost := s.get("ec", 2).set.Stripes[5].Parity
	blocks := make([][]byte, len(lost))
	for j, h := range lost {
		blocks[j] = s.chunkData(h)
		delete(s.chunks, h)
	}
	var got *ECPlan
	alloc := allocated(func() { got, err = s.PlanECSave("ec", 2, p) })
	if err != nil {
		t.Fatal(err)
	}
	if blob, err := got.Set.Encode(); err != nil || !bytes.Equal(blob, wantBlob) {
		t.Fatalf("a re-plan with one stripe's parity lost encodes unlike a fresh store's plan (%v)", err)
	}
	if !raceBuild && (alloc < buffer || alloc >= 2*buffer) {
		t.Errorf("a re-plan with one stripe's parity lost allocated %d bytes, want one parity buffer (%d)", alloc, buffer)
	}
	for j, h := range lost {
		s.putChunk(h, blocks[j])
		s.ref(h, 1)
	}
}
