package mem

import "math/bits"

// PageHash is a 128-bit content hash of one page: two independent FNV-1a
// streams computed in a single pass. It keys the content-addressed
// checkpoint chunk store; 128 bits makes accidental collisions across any
// plausible simulation negligible.
type PageHash struct {
	Lo, Hi uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// Second stream: same prime, different offset basis (the first
	// stream's basis mixed with an arbitrary odd constant) so the two
	// words are decorrelated.
	fnvOffsetAlt = fnvOffset64 ^ 0x9e3779b97f4a7c15
)

// parallelHashPages is the stale-page count from which PageHashes splits
// a batch into two halves hashed on two processors. Below it the fork and
// join cost more than the second processor saves, and the batch allocates
// nothing; BenchmarkPageHashes measures both sides.
const parallelHashPages = 64

// hashPage computes the content hash of one page. Each stream is one
// chain of multiplies, every byte waiting on the previous byte's product.
func hashPage(data *[PageSize]byte) PageHash {
	lo := uint64(fnvOffset64)
	hi := uint64(fnvOffsetAlt)
	for _, b := range data {
		lo = (lo ^ uint64(b)) * fnvPrime64
		hi = (hi ^ uint64(bits.RotateLeft8(b, 1))) * fnvPrime64
	}
	return PageHash{Lo: lo, Hi: hi}
}

// hashPair computes hashPage of a and of b in one pass. Its four multiply
// chains are independent, so the processor overlaps the latency of one
// page's multiplies with the other's: two pages cost little more than
// hashPage of one.
func hashPair(a, b *[PageSize]byte) (PageHash, PageHash) {
	alo, ahi := uint64(fnvOffset64), uint64(fnvOffsetAlt)
	blo, bhi := alo, ahi
	x, y := a[:], b[:]
	for i, u := range x {
		v := y[i]
		alo = (alo ^ uint64(u)) * fnvPrime64
		ahi = (ahi ^ uint64(bits.RotateLeft8(u, 1))) * fnvPrime64
		blo = (blo ^ uint64(v)) * fnvPrime64
		bhi = (bhi ^ uint64(bits.RotateLeft8(v, 1))) * fnvPrime64
	}
	return PageHash{Lo: alo, Hi: ahi}, PageHash{Lo: blo, Hi: bhi}
}

// zeroPageHash is the hash of an all-zero (never-written) page.
var zeroPageHash = hashPage(&[PageSize]byte{})

// HashBlock computes the content hash of one page-sized block (a parity
// block, say) with the page kernel, so equal bytes share one identity in
// content-addressed tables regardless of which path produced them. data
// must be PageSize bytes long.
func HashBlock(data []byte) PageHash { return hashPage((*[PageSize]byte)(data)) }

// HashBlocks sets out[i] to HashBlock of the i-th page of blocks, which
// must hold len(out) pages back to back, hashing them two at a time.
func HashBlocks(blocks []byte, out []PageHash) {
	page := func(i int) *[PageSize]byte { return (*[PageSize]byte)(blocks[i*PageSize:]) }
	i := 0
	for ; i+1 < len(out); i += 2 {
		out[i], out[i+1] = hashPair(page(i), page(i+1))
	}
	if i < len(out) {
		out[i] = hashPage(page(i))
	}
}

// PageHash returns the content hash of page pn, computing and caching it
// if the cached value is stale. Never-written pages hash as the zero page.
// Because the cache is invalidated only by the write path, a page that
// stayed clean between two checkpoints is hashed at most once — the
// property that makes content-addressed checkpointing cheap at steady
// state.
func (as *AddressSpace) PageHash(pn uint64) PageHash {
	p := as.pages.get(pn)
	if p == nil {
		return zeroPageHash
	}
	if !p.hashed {
		p.hash = hashPage(p.data)
		p.hashed = true
		as.hashComputes++
	}
	return p.hash
}

// PageHashes sets out[i] to PageHash(pns[i]) for distinct page numbers
// pns, caching and counting exactly as those calls would. It is the
// capture path's kernel: stale pages are hashed two at a time, and a batch
// of at least parallelHashPages stale pages is split into two halves, each
// holding half of them, that Parallel hashes on two processors. Each half
// writes only its own pages' caches and its own slots of out, and both are
// done before PageHashes returns.
func (as *AddressSpace) PageHashes(pns []uint64, out []PageHash) {
	out = out[:len(pns)]
	stale := 0
	for i, pn := range pns {
		switch p := as.pages.get(pn); {
		case p == nil:
			out[i] = zeroPageHash
		case p.hashed:
			out[i] = p.hash
		default:
			stale++
		}
	}
	as.hashComputes += uint64(stale)
	if stale < parallelHashPages {
		as.hashStale(pns, out)
		return
	}
	mid, seen := 0, 0
	for seen < stale/2 {
		if p := as.pages.get(pns[mid]); p != nil && !p.hashed {
			seen++
		}
		mid++
	}
	Parallel(2, func(half int) {
		if half == 0 {
			as.hashStale(pns[:mid], out[:mid])
		} else {
			as.hashStale(pns[mid:], out[mid:])
		}
	})
}

// hashStale hashes the stale pages among pns, pairing each with the next,
// into their caches and the matching slots of out.
func (as *AddressSpace) hashStale(pns []uint64, out []PageHash) {
	var held *Page // a stale page waiting for its pair
	at := 0        // held's slot
	for i, pn := range pns {
		p := as.pages.get(pn)
		if p == nil || p.hashed {
			continue
		}
		if held == nil {
			held, at = p, i
			continue
		}
		held.hash, p.hash = hashPair(held.data, p.data)
		held.hashed, p.hashed = true, true
		out[at], out[i] = held.hash, p.hash
		held = nil
	}
	if held != nil {
		held.hash, held.hashed = hashPage(held.data), true
		out[at] = held.hash
	}
}

// HashComputes returns the number of fresh (cache-miss) page-hash
// computations performed through this address space.
func (as *AddressSpace) HashComputes() uint64 { return as.hashComputes }
