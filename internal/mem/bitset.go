package mem

import "math/bits"

// Bitset is a sparse, offset-based bitset over page numbers. Address
// spaces start allocating near allocBase, so the first set bit anchors
// the word array and the set grows in either direction as needed.
//
// It replaces the dirty map[uint64]bool: the pre-copy loop scans the
// dirty set every round, and a bitset gives both a compact scan and a
// naturally ascending iteration order — map iteration order is exactly
// what cruzvet's maporder analyzer exists to keep out of sim-visible
// state.
type Bitset struct {
	base  uint64 // word index (pn >> 6) of words[0]
	words []uint64
	count int
}

// Set marks pn, reporting whether it was newly set.
func (b *Bitset) Set(pn uint64) bool {
	w := pn >> 6
	switch {
	case b.words == nil:
		b.base = w
		b.words = make([]uint64, 1, 8)
	case w < b.base:
		shift := b.base - w
		grown := make([]uint64, uint64(len(b.words))+shift)
		copy(grown[shift:], b.words)
		b.words = grown
		b.base = w
	case w >= b.base+uint64(len(b.words)):
		need := w - b.base + 1
		for uint64(len(b.words)) < need {
			b.words = append(b.words, 0)
		}
	}
	bit := uint64(1) << (pn & 63)
	idx := w - b.base
	if b.words[idx]&bit != 0 {
		return false
	}
	b.words[idx] |= bit
	b.count++
	return true
}

// reserve widens the word array to cover page numbers lo through hi in
// one allocation, so that setting any of them allocates nothing more.
func (b *Bitset) reserve(lo, hi uint64) {
	lw, hw := lo>>6, hi>>6
	if b.words != nil {
		end := b.base + uint64(len(b.words))
		if lw >= b.base && hw < end {
			return
		}
		lw, hw = min(lw, b.base), max(hw, end-1)
	}
	grown := make([]uint64, hw-lw+1)
	if b.words != nil {
		copy(grown[b.base-lw:], b.words)
	}
	b.base, b.words = lw, grown
}

// Has reports whether pn is set.
func (b *Bitset) Has(pn uint64) bool {
	w := pn >> 6
	if b.words == nil || w < b.base || w >= b.base+uint64(len(b.words)) {
		return false
	}
	return b.words[w-b.base]&(1<<(pn&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int { return b.count }

// Reset clears every bit but keeps the allocated words, so a dirty set
// that refills to a similar footprint (the steady state between
// checkpoint rounds) allocates nothing.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}

// ForEach visits the set page numbers in ascending order.
func (b *Bitset) ForEach(fn func(pn uint64)) {
	for i, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn((b.base+uint64(i))<<6 | uint64(bit))
			w &^= 1 << bit
		}
	}
}

// Pages returns the set page numbers as a sorted slice.
func (b *Bitset) Pages() []uint64 {
	out := make([]uint64, 0, b.count)
	b.ForEach(func(pn uint64) { out = append(out, pn) })
	return out
}
