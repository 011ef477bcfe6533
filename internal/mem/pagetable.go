package mem

// pageTable maps page numbers to materialised pages. It is a window of
// slots over the page numbers between the lowest and highest page ever
// set: an address space's regions are bump-allocated from one base, so
// the window is about as wide as what the process mapped, and a lookup is
// an index instead of a hash probe. Sizing the window for a restore is
// one allocation however many pages it holds; a Go map of n pages
// allocates two objects per 1,024. The dirty set is a scan of it, in
// ascending order, reading each page's write stamp.
type pageTable struct {
	base  uint64  // page number of slots[0]
	slots []*Page // nil where no page is materialised
	n     int     // non-nil slots
}

// get returns page pn, or nil.
func (t *pageTable) get(pn uint64) *Page {
	if i := pn - t.base; pn >= t.base && i < uint64(len(t.slots)) {
		return t.slots[i]
	}
	return nil
}

// set makes p, which is not nil, page pn.
func (t *pageTable) set(pn uint64, p *Page) {
	t.reserve(pn, pn)
	s := &t.slots[pn-t.base]
	if *s == nil {
		t.n++
	}
	*s = p
}

// reserve widens the window to cover page numbers lo through hi, in one
// allocation at most. An empty table gets exactly that window; a window
// growing upwards grows as append does, so a process touching pages in
// ascending order pays amortised constant time per page.
func (t *pageTable) reserve(lo, hi uint64) {
	end := t.base + uint64(len(t.slots)) // one past the window
	switch {
	case t.slots == nil:
		t.base, t.slots = lo, make([]*Page, hi-lo+1)
	case lo >= t.base && hi < end:
	case lo >= t.base:
		t.slots = append(t.slots, make([]*Page, hi+1-end)...)
	default:
		grown := make([]*Page, max(hi+1, end)-lo)
		copy(grown[t.base-lo:], t.slots)
		t.base, t.slots = lo, grown
	}
}

// forEach visits the materialised pages in ascending page order.
func (t *pageTable) forEach(fn func(pn uint64, p *Page)) {
	for i, p := range t.slots {
		if p != nil {
			fn(t.base+uint64(i), p)
		}
	}
}
