package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cruz/internal/gobmemo"
	"cruz/internal/mem"
)

// Erasure-coded durability tier: instead of shipping k full replicas of
// every committed checkpoint (k× bytes on the wire and on disk), the
// distinct dedup chunks of a checkpoint chain are packed into stripes of
// m chunks and extended with r Reed-Solomon parity blocks, so surviving
// any r node losses costs ~(1+r/m)× instead of k×. The codec is
// stdlib-only GF(256) arithmetic with precomputed exp/log/mul tables and
// a Vandermonde-derived systematic matrix: the m data shards of a stripe
// ARE the chunks (content-addressed, dedup-shared like everything else),
// and parity blocks enter the same chunk table under their own content
// hash, so the existing offer/want/data delta protocol ships shards with
// no new wire format for bulk data.

// ErrECShards is returned when too few shards survive to reconstruct a
// stripe (fewer than m of its m+r shards are available).
var ErrECShards = errors.New("ckpt: too few shards to reconstruct stripe")

// ECParams configures the erasure-coding tier: each stripe holds M data
// chunks and R parity blocks, and any M of the M+R shards reconstruct
// the stripe. Zero params disable EC.
type ECParams struct {
	M int
	R int
}

// Enabled reports whether erasure coding is configured.
func (p ECParams) Enabled() bool { return p.M > 0 && p.R > 0 }

// Validate checks the parameters against the GF(256) field bound.
func (p ECParams) Validate() error {
	if p.M < 1 || p.R < 1 {
		return fmt.Errorf("ckpt: EC params %d+%d: need m >= 1 and r >= 1", p.M, p.R)
	}
	if p.M+p.R > 255 {
		return fmt.Errorf("ckpt: EC params %d+%d: m+r must be <= 255", p.M, p.R)
	}
	return nil
}

// ECStripe is one stripe of the shard manifest: up to M data chunk
// hashes (only the final stripe of a set may be shorter — the missing
// tail positions are implicit all-zero padding blocks) plus the R parity
// block hashes computed over them.
type ECStripe struct {
	Data   []mem.PageHash
	Parity []mem.PageHash
}

// ECSet is the shard manifest for one erasure-coded checkpoint: which
// distinct chunks of the chain ending at Seq were packed into which
// stripe, and the content hashes of the parity blocks extending each
// stripe. The set plus any M of a stripe's M+R shards reconstructs
// every chunk in the stripe.
type ECSet struct {
	Pod     string
	Seq     int
	M, R    int
	Chain   []int // manifest chain, newest-first
	Stripes []ECStripe
}

// Encode serializes the shard manifest for the wire.
func (set *ECSet) Encode() ([]byte, error) {
	b, err := memoEncode(ecSetCodec, set)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode EC set: %w", err)
	}
	return b, nil
}

// DecodeECSet parses an encoded shard manifest, rejecting one whose
// parameters or stripe shapes would index out of range later: the bytes
// come off the wire.
func DecodeECSet(b []byte) (*ECSet, error) {
	set, err := parseECSet(b)
	if err == nil {
		err = (ECParams{M: set.M, R: set.R}).Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: decode EC set: %w", err)
	}
	for i := range set.Stripes {
		if st := &set.Stripes[i]; len(st.Data) > set.M || len(st.Parity) != set.R {
			return nil, fmt.Errorf("ckpt: decode EC set: stripe %d holds %d+%d shards of %d+%d",
				i, len(st.Data), len(st.Parity), set.M, set.R)
		}
	}
	return set, nil
}

// parseECSet reads a set off the bytes Encode writes without gob's decoder,
// in five allocations whatever its stripe count: the set, its pod name,
// chain and stripe list, and one array every stripe's Data and Parity are
// carved from. It takes P ‖ V only, and of V only what gob.Encoder writes,
// which sends a struct field only when it is not zero: what it accepts is
// what a fresh gob.Decoder makes of the bytes, and re-encodes to them. The
// field numbers are ECSet's, ECStripe's and mem.PageHash's fields in
// order, as P, which the bytes must start with, describes them.
func parseECSet(b []byte) (*ECSet, error) {
	v, rest, err := ecSetCodec.Value(b)
	if err == nil && len(rest) > 0 {
		err = errors.New("bytes after the value message")
	}
	if err != nil {
		return nil, err
	}
	set := new(ECSet)
	r := gobmemo.NewReader(v)
	for f := r.Field(-1, 6); f >= 0; f = r.Field(f, 6) {
		switch f {
		case 0:
			set.Pod = r.SentString()
		case 1:
			set.Seq = int(r.SentInt())
		case 2:
			set.M = int(r.SentInt())
		case 3:
			set.R = int(r.SentInt())
		case 4:
			set.Chain = make([]int, r.SentCount())
			for i := range set.Chain {
				set.Chain[i] = int(r.Int())
			}
		case 5:
			n := r.SentCount()
			sizing := r // a first pass counts the hashes
			hashes := readStripes(&sizing, n, nil, nil)
			if err := sizing.Err(); err != nil {
				return nil, err
			}
			set.Stripes = make([]ECStripe, n)
			readStripes(&r, n, set.Stripes, make([]mem.PageHash, hashes))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return set, nil
}

// readStripes reads n ECStripe values and returns how many hashes they
// hold. Given stripes and an array of that many hashes, it fills the
// stripes too, carving each Data and Parity from the array.
func readStripes(r *gobmemo.Reader, n int, stripes []ECStripe, hashes []mem.PageHash) int {
	k := 0
	for i := 0; i < n; i++ {
		for f := r.Field(-1, 2); f >= 0; f = r.Field(f, 2) {
			c := r.SentCount()
			var hs []mem.PageHash
			if stripes != nil {
				hs = hashes[k : k+c : k+c]
				if f == 0 {
					stripes[i].Data = hs
				} else {
					stripes[i].Parity = hs
				}
			}
			for j := 0; j < c; j++ {
				h := readHash(r)
				if hs != nil {
					hs[j] = h
				}
			}
			k += c
		}
	}
	return k
}

// readHash reads one mem.PageHash off a gob value.
func readHash(r *gobmemo.Reader) (h mem.PageHash) {
	for f := r.Field(-1, 2); f >= 0; f = r.Field(f, 2) {
		x := r.SentUint()
		if f == 0 {
			h.Lo = x
		} else {
			h.Hi = x
		}
	}
	return h
}

// Shards returns the total shard count per stripe.
func (set *ECSet) Shards() int { return set.M + set.R }

// ShardIndex maps (stripe, holder) to the shard index the holder at ring
// position h stores for that stripe — a rotation, so consecutive stripes
// place their parity on different nodes and no node ever holds two
// shards of one stripe (the placement invariant that makes any R node
// losses survivable).
func (set *ECSet) ShardIndex(stripe, holder int) int {
	return (stripe + holder) % set.Shards()
}

// shardHash resolves one shard index of a stripe to its content hash.
// ok=false marks an implicit zero-padding position (short tail stripe).
func (set *ECSet) shardHash(stripe, idx int) (mem.PageHash, bool) {
	st := &set.Stripes[stripe]
	if idx < set.M {
		if idx >= len(st.Data) {
			return mem.PageHash{}, false
		}
		return st.Data[idx], true
	}
	return st.Parity[idx-set.M], true
}

// HolderHashes lists the distinct content hashes of every shard the
// holder at ring position h must store, in deterministic stripe order.
func (set *ECSet) HolderHashes(holder int) []mem.PageHash {
	seen := make(map[mem.PageHash]bool, len(set.Stripes))
	out := make([]mem.PageHash, 0, len(set.Stripes))
	for s := range set.Stripes {
		h, ok := set.shardHash(s, set.ShardIndex(s, holder))
		if !ok || seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, h)
	}
	return out
}

// DataBytes is the logical chunk payload the set protects.
func (set *ECSet) DataBytes() int64 {
	var n int64
	for i := range set.Stripes {
		n += int64(len(set.Stripes[i].Data)) * mem.PageSize
	}
	return n
}

// ---------------------------------------------------------------------
// GF(256) Reed-Solomon codec. Field: polynomial 0x11d, generator 2.

var (
	gfExp [512]byte
	gfLog [256]byte
	gfMul [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[byte(x)] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMul[a][b] = gfExp[int(gfLog[a])+int(gfLog[b])]
		}
	}
}

func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

type gfMatrix [][]byte

func newGFMatrix(rows, cols int) gfMatrix {
	m := make(gfMatrix, rows)
	buf := make([]byte, rows*cols)
	for i := range m {
		m[i] = buf[i*cols : (i+1)*cols]
	}
	return m
}

// vandermonde builds the rows×cols matrix with row i = [i^0, i^1, ...].
// Distinct evaluation points make every square row-submatrix invertible.
func vandermonde(rows, cols int) gfMatrix {
	m := newGFMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		e := byte(1)
		for j := 0; j < cols; j++ {
			m[i][j] = e
			e = gfMul[e][byte(i)]
		}
		if i == 0 {
			// 0^0 = 1, 0^j = 0 for j > 0.
			for j := 1; j < cols; j++ {
				m[0][j] = 0
			}
			m[0][0] = 1
		}
	}
	return m
}

func (m gfMatrix) mulMat(b gfMatrix) gfMatrix {
	rows, inner, cols := len(m), len(b), len(b[0])
	out := newGFMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for k := 0; k < inner; k++ {
			c := m[i][k]
			if c == 0 {
				continue
			}
			mt := &gfMul[c]
			for j := 0; j < cols; j++ {
				out[i][j] ^= mt[b[k][j]]
			}
		}
	}
	return out
}

// invert Gauss-Jordan-inverts a square matrix in place on a copy.
func (m gfMatrix) invert() (gfMatrix, error) {
	n := len(m)
	work := newGFMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work[i], m[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("ckpt: singular shard matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		if p := work[col][col]; p != 1 {
			for j := 0; j < 2*n; j++ {
				work[col][j] = gfDiv(work[col][j], p)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			c := work[r][col]
			mt := &gfMul[c]
			for j := 0; j < 2*n; j++ {
				work[r][j] ^= mt[work[col][j]]
			}
		}
	}
	inv := newGFMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(inv[i], work[i][n:])
	}
	return inv, nil
}

// ecMatrixCache memoizes the systematic encode matrix per (m, r): the
// (m+r)×m Vandermonde matrix normalized so its top m rows are the
// identity (data shards pass through unchanged; the bottom r rows are
// the parity coefficients). Any m rows remain invertible.
var (
	//cruzvet:allow nodeterminism a process-wide memo of a pure function, shared by clusters run in parallel goroutines; no sim-visible value depends on which fills it
	ecMatrixMu    sync.Mutex
	ecMatrixCache = map[ECParams]gfMatrix{}
)

func ecEncodeMatrix(p ECParams) gfMatrix {
	ecMatrixMu.Lock()
	defer ecMatrixMu.Unlock()
	if m, ok := ecMatrixCache[p]; ok {
		return m
	}
	v := vandermonde(p.M+p.R, p.M)
	top := newGFMatrix(p.M, p.M)
	for i := 0; i < p.M; i++ {
		copy(top[i], v[i])
	}
	topInv, err := top.invert()
	if err != nil {
		// Vandermonde top squares are always invertible; reaching this
		// means the field tables are corrupt — fail loudly.
		panic(err)
	}
	enc := v.mulMat(topInv)
	ecMatrixCache[p] = enc
	return enc
}

// gfRow is one output row of gfMulAdd: the page it accumulates into and
// the multiplication table of its coefficient.
type gfRow struct {
	out *[mem.PageSize]byte
	mul *[256]byte
}

// gfMulAdd adds src times each row's coefficient into the row's page in
// one pass over src, eight bytes at a time: the fused multiply-accumulate
// of both encode and decode. GF(256) addition is XOR, so the order in
// which sources and rows are added leaves every output bit where it is.
func gfMulAdd(rows []gfRow, src *[mem.PageSize]byte) {
	for b := 0; b < mem.PageSize; b += 8 {
		s := binary.LittleEndian.Uint64((*[8]byte)(src[b:])[:])
		s0, s1, s2, s3 := byte(s), byte(s>>8), byte(s>>16), byte(s>>24)
		s4, s5, s6, s7 := byte(s>>32), byte(s>>40), byte(s>>48), byte(s>>56)
		for _, r := range rows {
			t := r.mul
			x := uint64(t[s0]) | uint64(t[s1])<<8 | uint64(t[s2])<<16 | uint64(t[s3])<<24 |
				uint64(t[s4])<<32 | uint64(t[s5])<<40 | uint64(t[s6])<<48 | uint64(t[s7])<<56
			o := (*[8]byte)(r.out[b:])[:]
			binary.LittleEndian.PutUint64(o, binary.LittleEndian.Uint64(o)^x)
		}
	}
}

// page returns page i of a buffer of whole pages.
func page(buf []byte, i int) *[mem.PageSize]byte {
	return (*[mem.PageSize]byte)(buf[i*mem.PageSize:])
}

// ecEncodeStripe computes the r parity blocks of the stripe whose data
// chunks are hashes, up to m of them (missing tail positions are implicit
// zero pages and contribute nothing), as one buffer of r pages, block j at
// page j, and sets parity[j] to block j's content hash.
func ecEncodeStripe(enc gfMatrix, p ECParams, hashes []mem.PageHash, chunks map[mem.PageHash]chunkEntry, parity []mem.PageHash) []byte {
	blocks := make([]byte, p.R*mem.PageSize)
	var buf [255]gfRow // a stripe has fewer than 255 shards (ECParams.Validate)
	for i, h := range hashes {
		rows := buf[:0]
		for j := 0; j < p.R; j++ {
			if c := enc[p.M+j][i]; c != 0 {
				rows = append(rows, gfRow{page(blocks, j), &gfMul[c]})
			}
		}
		gfMulAdd(rows, (*[mem.PageSize]byte)(chunks[h].data))
	}
	mem.HashBlocks(blocks, parity)
	return blocks
}

// ecDecodeStripe reconstructs all m data blocks of a stripe from any m
// available shards. have lists the shard indexes present, blocks the
// matching shard pages (nil = implicit zero block for a padding index).
func ecDecodeStripe(enc gfMatrix, p ECParams, have []int, blocks [][]byte) ([][]byte, error) {
	if len(have) < p.M {
		return nil, ErrECShards
	}
	sub := newGFMatrix(p.M, p.M)
	for k := 0; k < p.M; k++ {
		copy(sub[k], enc[have[k]])
	}
	inv, err := sub.invert()
	if err != nil {
		return nil, err
	}
	data := make([][]byte, p.M)
	out := make([]byte, p.M*mem.PageSize)
	for i := range data {
		data[i] = page(out, i)[:]
	}
	var buf [255]gfRow
	for k := 0; k < p.M; k++ {
		if blocks[k] == nil {
			continue
		}
		rows := buf[:0]
		for i := 0; i < p.M; i++ {
			if c := inv[i][k]; c != 0 {
				rows = append(rows, gfRow{page(out, i), &gfMul[c]})
			}
		}
		gfMulAdd(rows, (*[mem.PageSize]byte)(blocks[k]))
	}
	return data, nil
}

// ---------------------------------------------------------------------
// Store integration: planning, holder-side adoption, reconstruction.

// ECPlan is the synchronous half of an erasure-coded save: stripes are
// assembled, parity blocks computed and resident in the chunk table, and
// the shard manifest registered. ParityBytes of disk writing remain for
// the caller.
type ECPlan struct {
	Pod         string
	Seq         int
	Set         *ECSet
	Stripes     int
	DataBytes   int64
	ParityBytes int64
}

// PlanECSave packs the distinct chunks of the manifest chain ending at
// (pod, seq) into stripes of p.M chunks, computes p.R parity blocks per
// stripe across a worker pool (a stripe the superseded set striped from
// the same chunks reuses that set's), and registers the shard manifest.
// The set takes a chunk-table reference on every data and parity block it
// covers — stripe-granularity refcounts, so Compact and Discard can never
// free a chunk whose stripe parity is still live (reconstructing any chunk
// of a stripe needs all of it). An older EC set for the same pod is
// superseded and its references released.
func (s *Store) PlanECSave(pod string, seq int, p ECParams) (*ECPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	offer, err := s.ExportOffer(pod, seq)
	if err != nil {
		return nil, err
	}
	if !offer.Dedup {
		return nil, fmt.Errorf("ckpt: EC save %s/%d: checkpoint is not deduplicated", pod, seq)
	}
	set := &ECSet{Pod: pod, Seq: seq, M: p.M, R: p.R, Chain: offer.Chain}
	nStripes := (len(offer.Hashes) + p.M - 1) / p.M
	// One array holds every stripe's data hashes, then every stripe's
	// parity hashes; each stripe's Data and Parity are carved from it.
	hashes := make([]mem.PageHash, len(offer.Hashes)+nStripes*p.R)
	data, parity := hashes[:len(offer.Hashes)], hashes[len(offer.Hashes):]
	copy(data, offer.Hashes)
	set.Stripes = make([]ECStripe, nStripes)
	for i := range set.Stripes {
		hi := min((i+1)*p.M, len(data))
		set.Stripes[i] = ECStripe{Data: data[i*p.M : hi : hi], Parity: parity[i*p.R : (i+1)*p.R : (i+1)*p.R]}
	}
	// A stripe the set this one supersedes striped from the same chunks
	// keeps that set's parity, which the same matrix would compute again;
	// the pool encodes the rest. A parity buffer per stripe, not per set: a
	// parity block that later checkpoints dedup against pins only its own
	// stripe's buffer.
	old := s.priorSet(pod, seq, p)
	encode := make([]int, 0, nStripes)
	for i := range set.Stripes {
		if !s.reuseParity(old, i, &set.Stripes[i]) {
			encode = append(encode, i)
		}
	}
	enc := ecEncodeMatrix(p)
	blocks := make([][]byte, nStripes)
	mem.Parallel(len(encode), func(k int) {
		i := encode[k]
		st := &set.Stripes[i]
		blocks[i] = ecEncodeStripe(enc, p, st.Data, s.chunks, st.Parity)
	})
	plan := &ECPlan{Pod: pod, Seq: seq, Set: set, Stripes: nStripes}
	plan.DataBytes = int64(len(offer.Hashes)) * mem.PageSize

	// Install encoded parity blocks in the chunk table under their content
	// hash and take the set's stripe references (data and parity alike).
	for i := range set.Stripes {
		for j := range set.Stripes[i].Parity {
			var blk []byte
			if blocks[i] != nil {
				blk = page(blocks[i], j)[:]
			}
			h := set.Stripes[i].Parity[j]
			if _, ok := s.chunks[h]; ok {
				s.stats.DupChunks++
			} else {
				s.putChunk(h, blk)
				plan.ParityBytes += mem.PageSize
			}
			s.ref(h, 1)
		}
		for _, h := range set.Stripes[i].Data {
			s.ref(h, 1)
		}
	}

	s.supersede(pod, seq, s.dropSet)
	s.ensure(pod, seq).set = set
	return plan, nil
}

// priorSet returns the pod's newest shard set at or below seq striped
// with p, if any: the set PlanECSave's supersede is about to drop.
func (s *Store) priorSet(pod string, seq int, p ECParams) *ECSet {
	var old *ECSet
	for oseq, e := range s.pods[pod] {
		if set := e.set; set != nil && oseq <= seq && set.M == p.M && set.R == p.R &&
			(old == nil || oseq > old.Seq) {
			old = set
		}
	}
	return old
}

// reuseParity gives stripe i of a new set old's parity hashes, and reports
// it did, when old's stripe i holds the same data chunks and its parity
// blocks are resident: for a reused block the install has no bytes, only a
// reference to take on the resident one.
func (s *Store) reuseParity(old *ECSet, i int, st *ECStripe) bool {
	if old == nil || i >= len(old.Stripes) || !slices.Equal(old.Stripes[i].Data, st.Data) {
		return false
	}
	for _, h := range old.Stripes[i].Parity {
		if _, ok := s.chunks[h]; !ok {
			return false
		}
	}
	copy(st.Parity, old.Stripes[i].Parity)
	return true
}

// supersede applies drop to every entry of pod up to seq, before a shard
// set (or held subset) is registered there: it makes the older ones dead
// weight and replaces one already under seq. The newcomer's references are
// taken first, so a chunk both cover never touches refcount zero.
func (s *Store) supersede(pod string, seq int, drop func(*entry)) {
	for oseq, e := range s.pods[pod] {
		if oseq <= seq {
			drop(e)
			s.prune(pod, oseq)
		}
	}
}

// dropSet unregisters the entry's shard manifest, if any, releasing its
// stripe references (parity blocks nothing else references are freed).
func (s *Store) dropSet(e *entry) {
	if e.set == nil {
		return
	}
	for i := range e.set.Stripes {
		st := &e.set.Stripes[i]
		for _, h := range st.Data {
			s.ref(h, -1)
		}
		for _, h := range st.Parity {
			s.ref(h, -1)
		}
	}
	e.set = nil
}

// dropHeld releases the shard subset the entry holds for another node.
func (s *Store) dropHeld(e *entry) {
	if e.held == nil {
		return
	}
	for _, h := range e.held.HolderHashes(e.holder) {
		s.ref(h, -1)
	}
	e.held = nil
}

// adoptShards is the shard half of Adopt: the transfer's chunks are
// resident; keep the chain manifests it carried as raw blobs (a holder
// stores metadata it cannot fully resolve) and take a chunk reference on
// every block ring position t.Holder stores, so the holder's own GC cannot
// free one. An older held set for the same pod is superseded.
func (s *Store) adoptShards(t *Transfer) error {
	set := t.Set
	if t.Holder < 0 || t.Holder >= set.Shards() {
		return fmt.Errorf("ckpt: adopt EC %s/%d: holder %d of %d shards", set.Pod, set.Seq, t.Holder, set.Shards())
	}
	want := set.HolderHashes(t.Holder)
	for _, h := range want {
		if _, ok := s.chunks[h]; !ok {
			return fmt.Errorf("ckpt: adopt EC %s/%d: missing shard block %v", set.Pod, set.Seq, h)
		}
	}
	for _, h := range want {
		s.ref(h, 1)
	}
	for seq, blob := range t.Manifests {
		s.ensure(set.Pod, seq).raw = blob
	}
	s.supersede(set.Pod, set.Seq, s.dropHeld)
	e := s.ensure(set.Pod, set.Seq)
	e.held, e.holder = set, t.Holder
	return nil
}

// ECServe assembles this holder's contribution to a reconstruction, as the
// transfer it would adopt again: the shard manifest, the chain manifests
// (raw as they arrived, or re-encoded where ordinary replication put the
// decoded form here first) and every shard block it holds.
func (s *Store) ECServe(pod string, seq int) (*Transfer, error) {
	held := s.get(pod, seq)
	if held.held == nil {
		return nil, fmt.Errorf("%w: %s/%d (no held shards)", ErrNoImage, pod, seq)
	}
	// Never nil: the wire sends an empty map as such, two bytes of frame.
	t := &Transfer{Pod: pod, Seq: seq, Set: held.held, Holder: held.holder, Manifests: make(map[int][]byte)}
	for _, cs := range held.held.Chain {
		e := s.get(pod, cs)
		blob := e.raw
		if blob == nil && e.manifest != nil {
			var err error
			if blob, err = e.manifest.Encode(); err != nil {
				return nil, err
			}
		}
		if blob != nil {
			t.Manifests[cs] = blob
			t.TotalBytes += int64(len(blob))
		}
	}
	for _, h := range held.held.HolderHashes(held.holder) {
		if e, ok := s.chunks[h]; ok {
			t.Chunks = append(t.Chunks, ChunkData{Hash: h, Data: e.data})
			t.TotalBytes += int64(len(e.data))
		}
	}
	return t, nil
}

// ECRecovery summarizes a reconstruction: how many chunks had to be
// decoded from parity versus arrived directly, and the bytes installed.
type ECRecovery struct {
	Chunks         int
	DecodedChunks  int
	DecodedStripes int
	// TotalBytes is every installed data chunk's bytes. A caller that
	// already wrote the directly-arrived shard blocks to disk as they
	// landed charges only DecodedBytes at decode time.
	TotalBytes int64
	// DecodedBytes is the subset of TotalBytes that had to be decoded
	// from parity rather than arriving as a shard block.
	DecodedBytes int64
}

// ReconstructEC rebuilds the checkpoint chain of an erasure-coded set
// from shard blocks gathered off any M surviving holders: stripes whose
// data chunks all arrived install directly; stripes missing data decode
// it from parity (any M of M+R shards), across the same worker pool as
// encode. Recovered chunks are verified against their content hash, the
// chain manifests are installed, and the store is left restart-ready
// (Load resolves the chain). The caller charges disk and CPU.
func (s *Store) ReconstructEC(set *ECSet, manifests map[int][]byte, blocks []ChunkData) (*ECRecovery, error) {
	p := ECParams{M: set.M, R: set.R}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	avail := make(map[mem.PageHash][]byte, len(blocks))
	for _, cd := range blocks {
		avail[cd.Hash] = cd.Data
	}
	lookup := func(h mem.PageHash) []byte {
		if d, ok := avail[h]; ok {
			return d
		}
		return s.chunkData(h)
	}
	enc := ecEncodeMatrix(p)
	rec := &ECRecovery{}
	type stripeOut struct {
		decoded bool
		data    [][]byte // recovered blocks for missing data hashes, aligned to Stripes[i].Data
		err     error
	}
	outs := make([]stripeOut, len(set.Stripes))
	mem.Parallel(len(set.Stripes), func(i int) {
		st := &set.Stripes[i]
		missing := false
		for _, h := range st.Data {
			if lookup(h) == nil {
				missing = true
				break
			}
		}
		if !missing {
			return
		}
		// Gather any M available shards: data positions first (including
		// implicit zero padding), then parity.
		var have []int
		var shards [][]byte
		for idx := 0; idx < set.M+set.R && len(have) < set.M; idx++ {
			h, real := set.shardHash(i, idx)
			if !real {
				have = append(have, idx)
				shards = append(shards, nil) // zero padding block
				continue
			}
			if d := lookup(h); len(d) == mem.PageSize { // a block of any other size is no shard
				have = append(have, idx)
				shards = append(shards, d)
			}
		}
		data, err := ecDecodeStripe(enc, p, have, shards)
		if err != nil {
			outs[i] = stripeOut{err: fmt.Errorf("%w: %s/%d stripe %d (%d of %d shards)",
				ErrECShards, set.Pod, set.Seq, i, len(have), set.Shards())}
			return
		}
		out := stripeOut{decoded: true, data: make([][]byte, len(st.Data))}
		for j, h := range st.Data {
			if lookup(h) != nil {
				continue
			}
			if got := mem.HashBlock(data[j]); got != h {
				out.err = fmt.Errorf("ckpt: reconstruct %s/%d stripe %d chunk %d: hash mismatch",
					set.Pod, set.Seq, i, j)
				break
			}
			out.data[j] = data[j]
		}
		outs[i] = out
	})
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
	}
	// Install every data chunk (direct or decoded) into the chunk table;
	// the chain manifests then take their references as in Adopt.
	for i := range set.Stripes {
		st := &set.Stripes[i]
		if outs[i].decoded {
			rec.DecodedStripes++
		}
		for j, h := range st.Data {
			rec.Chunks++
			if _, ok := s.chunks[h]; ok {
				continue
			}
			var d []byte
			if db, ok := avail[h]; ok {
				d = db
			} else if outs[i].data != nil {
				d = outs[i].data[j]
				rec.DecodedChunks++
				rec.DecodedBytes += int64(len(d))
			}
			if d == nil {
				return nil, fmt.Errorf("ckpt: reconstruct %s/%d: chunk %v unresolved", set.Pod, set.Seq, h)
			}
			s.putChunk(h, d)
			rec.TotalBytes += int64(len(d))
		}
	}
	for i := len(set.Chain) - 1; i >= 0; i-- { // oldest first
		seq := set.Chain[i]
		if s.get(set.Pod, seq).manifest != nil {
			continue
		}
		blob, ok := manifests[seq]
		if !ok {
			return nil, fmt.Errorf("ckpt: reconstruct %s/%d: missing chain manifest %d", set.Pod, set.Seq, seq)
		}
		if err := s.adoptManifest(set.Pod, seq, blob); err != nil {
			return nil, err
		}
		rec.TotalBytes += int64(len(blob))
	}
	return rec, nil
}
