// Package mem implements the virtual-memory substrate of the simulated
// kernel: sparse, page-based address spaces whose pages carry one write
// stamp each.
//
// The contents of address spaces dominate checkpoint image size, exactly as
// the paper observes ("most of the state consists of the non-zero contents
// of the virtual memory of all processes running in the pod"). The stamp
// serves both optimizations of §5.2 of the paper, as page-table bits do in
// a kernel: a page is dirty — due in the next incremental checkpoint —
// unless its stamp predates the last capture whose image was kept (Cut,
// Keep), and write-protected while it predates the newest Protect.
package mem

import (
	"errors"
	"fmt"
	"slices"
)

// PageSize is the size of a virtual-memory page in bytes, matching the
// i386 Linux systems of the paper's testbed.
const PageSize = 4096

// Page is one page of memory: a header over its 4 KiB array. Pages are
// only materialized when written, so untouched regions cost nothing in
// either RAM or checkpoint images.
type Page struct {
	data *[PageSize]byte
	// hash caches the page's content hash; hashed says whether it is
	// current. The write path (writablePage) invalidates it, so clean
	// pages are hashed at most once between writes no matter how many
	// checkpoints inspect them.
	hash   PageHash
	hashed bool
	// frozen says an image or a store holds data, which is then never
	// written again: the next write to the page copies it first.
	frozen bool
	// stamp is the space's generation when the page was last written or
	// materialised (writablePage, InstallPages).
	stamp uint64
}

// Errors returned by address-space operations.
var (
	ErrOutOfRange = errors.New("mem: address out of mapped range")
	ErrBadAlloc   = errors.New("mem: invalid allocation size")
)

// Region is a contiguous mapped range of an address space, analogous to a
// Linux VMA.
type Region struct {
	Start uint64
	Size  uint64
	Name  string // e.g. "heap", "stack", "shm:3"
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Start + r.Size }

// AddressSpace is a sparse, paged virtual address space. The zero value is
// an empty address space ready for use, but NewAddressSpace is preferred
// because it sets a conventional allocation base.
type AddressSpace struct {
	pages   pageTable
	regions []Region
	next    uint64 // next allocation address (bump allocator)

	// faultHook, when set, observes every write-protection fault (the
	// first write to a page under the newest protection). The kernel
	// wires it to charge the fault's cost to the running process — the
	// runtime price of checkpointing concurrently with execution.
	faultHook func(pn uint64)
	// gen is the generation every write stamps its page with; a
	// protection and a capture (Cut) each start a new one. protected is
	// the generation the newest protection started, protections how many
	// are held. base is the one the last kept capture started: a page
	// stamped in it or later is dirty.
	gen, protected, base uint64
	protections          int
	origin               *AddressSpace // a snapshot's, which it protects

	// hashComputes counts fresh page-hash computations performed through
	// this address space (cache misses); checkpoint code uses the delta
	// across a capture to charge simulated hashing cost for exactly the
	// pages that were re-hashed.
	hashComputes uint64

	// arrays and heads are what is left of the slabs this space carves
	// page arrays and headers from (newArray, newPage).
	arrays [][PageSize]byte
	heads  []Page
}

// allocBase mimics the customary base of the heap in a Linux process;
// the exact value is immaterial, it just keeps addresses recognizable.
const allocBase = 0x0804_8000

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: allocBase}
}

func (as *AddressSpace) init() {
	if as.next == 0 {
		as.next = allocBase
	}
}

// SetFaultHook installs fn to run on every write-protection fault in
// this address space (nil removes it). The hook fires before the write
// proceeds, once per page per protection — exactly when a real kernel
// would take a fault on a write-protected page.
func (as *AddressSpace) SetFaultHook(fn func(pn uint64)) { as.faultHook = fn }

// Protect write-protects every page the space holds, in constant time:
// it starts a generation, and until the matching Unprotect the first
// write to each page stamped before it fires the fault hook. A page
// materialised under the protection does not fault. Protections may
// nest, and are released oldest first.
func (as *AddressSpace) Protect() {
	as.gen++
	as.protected = as.gen
	as.protections++
}

// Unprotect releases the oldest protection held; it panics if none is.
func (as *AddressSpace) Unprotect() {
	if as.protections == 0 {
		panic("mem: Unprotect of an unprotected address space")
	}
	as.protections--
}

// Alloc maps a new region of the given size (rounded up to whole pages)
// and returns its base address. Alloc never reuses addresses, which keeps
// restored images trivially relocatable.
func (as *AddressSpace) Alloc(size uint64, name string) (uint64, error) {
	as.init()
	if size == 0 {
		return 0, ErrBadAlloc
	}
	size = (size + PageSize - 1) / PageSize * PageSize
	base := as.next
	as.next += size + PageSize // leave a guard page between regions
	as.regions = append(as.regions, Region{Start: base, Size: size, Name: name})
	return base, nil
}

// Regions returns the mapped regions in allocation order. The returned
// slice is a copy.
func (as *AddressSpace) Regions() []Region {
	out := make([]Region, len(as.regions))
	copy(out, as.regions)
	return out
}

func (as *AddressSpace) regionFor(addr uint64) *Region {
	for i := range as.regions {
		r := &as.regions[i]
		if addr >= r.Start && addr < r.End() {
			return r
		}
	}
	return nil
}

// checkRange verifies [addr, addr+n) lies within a single mapped region.
func (as *AddressSpace) checkRange(addr uint64, n int) error {
	if n < 0 {
		return ErrBadAlloc
	}
	if n == 0 {
		return nil
	}
	r := as.regionFor(addr)
	if r == nil || addr+uint64(n) > r.End() {
		return fmt.Errorf("%w: [%#x,+%d)", ErrOutOfRange, addr, n)
	}
	return nil
}

// maxSlabPages caps the arrays, or the headers, of one slab: 512 KiB of
// arrays. A slab lives while any of its arrays does, in the space, an
// image or a store, so a smaller one pins less garbage.
const maxSlabPages = 128

// slabLen is how many arrays or headers the space's next slab holds: half
// its resident pages, at least one and at most maxSlabPages. A process
// materialising 2,048 pages then pays a few dozen allocations, not one
// per page, and a restored one copying all n of its pages back pays
// two, or one per maxSlabPages once n passes 256.
func (as *AddressSpace) slabLen() int { return min(maxSlabPages, max(1, as.pages.n/2)) }

// newArray carves a zeroed page array from the space's slab.
func (as *AddressSpace) newArray() *[PageSize]byte {
	if len(as.arrays) == 0 {
		as.arrays = make([][PageSize]byte, as.slabLen())
	}
	a := &as.arrays[0]
	as.arrays = as.arrays[1:]
	return a
}

// newPage carves a fresh page, held by this space alone, from the
// space's slabs.
func (as *AddressSpace) newPage() *Page {
	if len(as.heads) == 0 {
		as.heads = make([]Page, as.slabLen())
	}
	p := &as.heads[0]
	as.heads = as.heads[1:]
	p.data, p.stamp = as.newArray(), as.gen
	return p
}

// writablePage returns the page containing page-number pn, materializing
// it or copying a frozen array as needed, takes the fault of its first
// write under the newest protection, and stamps it with the current
// generation.
func (as *AddressSpace) writablePage(pn uint64) *Page {
	p := as.pages.get(pn)
	if p == nil {
		p = as.newPage()
		as.pages.set(pn, p)
	} else if p.frozen {
		// An image holds the array: write a private copy instead. The
		// copy alone is no fault.
		a := as.newArray()
		*a = *p.data
		p.data, p.frozen = a, false
	}
	if as.protections > 0 && p.stamp < as.protected && as.faultHook != nil {
		as.faultHook(pn)
	}
	p.stamp = as.gen
	// The caller is about to write: whatever hash was cached no longer
	// describes the contents.
	p.hashed = false
	return p
}

// Write copies b into the address space at addr.
func (as *AddressSpace) Write(addr uint64, b []byte) error {
	as.init()
	if err := as.checkRange(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		pn := addr / PageSize
		off := addr % PageSize
		n := copy(as.writablePage(pn).data[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Read copies len(b) bytes from the address space at addr into b. Reads of
// never-written pages yield zeros, as on a real demand-zero kernel.
func (as *AddressSpace) Read(addr uint64, b []byte) error {
	as.init()
	if err := as.checkRange(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		pn := addr / PageSize
		off := addr % PageSize
		var n int
		if p := as.pages.get(pn); p != nil {
			n = copy(b, p.data[off:])
		} else {
			n = len(b)
			if max := PageSize - int(off); n > max {
				n = max
			}
			for i := 0; i < n; i++ {
				b[i] = 0
			}
		}
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteUint64 stores v little-endian at addr.
func (as *AddressSpace) WriteUint64(addr uint64, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return as.Write(addr, b[:])
}

// ReadUint64 loads a little-endian uint64 from addr.
func (as *AddressSpace) ReadUint64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := as.Read(addr, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

// ResidentPages returns the number of materialized pages.
func (as *AddressSpace) ResidentPages() int { return as.pages.n }

// DirtyPages returns the number of dirty pages, those written or
// materialised since the capture last kept (Keep): what an incremental
// checkpoint saves.
func (as *AddressSpace) DirtyPages() int {
	n := 0
	as.pages.forEach(func(_ uint64, p *Page) {
		if p.stamp >= as.base {
			n++
		}
	})
	return n
}

// Cut starts a generation and returns it: every page written so far is
// stamped before it, every later write in it or after. A capture cuts the
// space it saves, recording the generation for Keep.
func (as *AddressSpace) Cut() uint64 {
	as.gen++
	return as.gen
}

// Keep moves the dirty base to gen: pages stamped before it are clean.
// The base moves when a capture's image is kept, to the generation its
// Cut returned; a discarded one puts back the base Kept reported then.
func (as *AddressSpace) Keep(gen uint64) { as.base = gen }

// Kept returns the dirty base Keep last set.
func (as *AddressSpace) Kept() uint64 { return as.base }

// PageNumbers returns the page numbers of materialized pages, ascending
// as the page table is, or of the dirty ones alone if dirtyOnly is set.
func (as *AddressSpace) PageNumbers(dirtyOnly bool) []uint64 {
	n := as.pages.n
	if dirtyOnly {
		n = as.DirtyPages()
	}
	out := make([]uint64, 0, n)
	as.pages.forEach(func(pn uint64, p *Page) {
		if !dirtyOnly || p.stamp >= as.base {
			out = append(out, pn)
		}
	})
	return out
}

// PageData returns the contents of page pn. The returned slice aliases the
// live page and must not be modified. It changes with the page's next
// write unless the caller keeping it freezes the page (FreezePage).
func (as *AddressSpace) PageData(pn uint64) []byte {
	if p := as.pages.get(pn); p != nil {
		return p.data[:]
	}
	return nil
}

// FreezePage hands page pn's current array to a checkpoint image, which
// keeps it unchanged for as long as it lives: the space's next write to
// the page copies the array first. The copy alone fires no fault hook.
func (as *AddressSpace) FreezePage(pn uint64) {
	if p := as.pages.get(pn); p != nil {
		p.frozen = true
	}
}

// InstallPages materialises whole pages, page pns[i] as data(i), each of
// which must lie in a mapped region. It is used by restore, which replays
// a process's pages from a checkpoint image into a fresh address space.
// Each page it materialises holds data(i) itself, frozen: data(i) must
// never be written, as no image page is, and the page's first write
// copies it; it is stamped as a write would stamp it. Their headers are
// carved from one slab, and the page table is sized for all of them at
// once, so a process costs the same few allocations however many pages
// it has.
func (as *AddressSpace) InstallPages(pns []uint64, data func(i int) []byte) error {
	as.init()
	if len(pns) == 0 {
		return nil
	}
	lo, hi := pns[0], pns[0]
	for _, pn := range pns {
		lo, hi = min(lo, pn), max(hi, pn)
	}
	as.pages.reserve(lo, hi)
	heads := make([]Page, len(pns))
	for i, pn := range pns {
		d := data(i)
		if len(d) != PageSize {
			return fmt.Errorf("%w: page data must be %d bytes, got %d", ErrBadAlloc, PageSize, len(d))
		}
		addr := pn * PageSize
		if as.regionFor(addr) == nil {
			return fmt.Errorf("%w: page %#x not covered by a region", ErrOutOfRange, addr)
		}
		heads[i] = Page{data: (*[PageSize]byte)(d), frozen: true, stamp: as.gen}
		as.pages.set(pn, &heads[i])
	}
	return nil
}

// InstallRegion maps a region at an exact base address, used by restore to
// recreate the checkpointed layout.
func (as *AddressSpace) InstallRegion(r Region) error {
	as.init()
	if r.Size == 0 || r.Size%PageSize != 0 || r.Start%PageSize != 0 {
		return fmt.Errorf("%w: region %+v", ErrBadAlloc, r)
	}
	for i := range as.regions {
		ex := as.regions[i]
		if r.Start < ex.End() && ex.Start < r.End() {
			return fmt.Errorf("%w: region %+v overlaps %+v", ErrBadAlloc, r, ex)
		}
	}
	as.regions = append(as.regions, r)
	if r.End()+PageSize > as.next {
		as.next = r.End() + PageSize
	}
	return nil
}

// Snapshot returns a clone of the address space, whose later writes
// neither side sees. It protects and freezes the original, and gives the
// clone its own frozen headers over the same arrays, with their cached
// hashes: each side copies a page before writing it, and the original
// faults as under Protect until the clone's Release. The clone starts
// with no page dirty.
func (as *AddressSpace) Snapshot() *AddressSpace {
	as.init()
	as.Protect()
	pages := as.pages
	pages.slots = slices.Clone(pages.slots)
	heads := make([]Page, 0, pages.n)
	for i, p := range pages.slots {
		if p != nil {
			p.frozen = true
			heads = append(heads, *p)
			pages.slots[i] = &heads[len(heads)-1]
		}
	}
	return &AddressSpace{pages: pages, next: as.next, regions: slices.Clone(as.regions), origin: as,
		gen: as.gen + 1, base: as.gen + 1}
}

// Release ends a snapshot: the space it was taken from is unprotected,
// so its writes stop faulting, and the snapshot must not be used again.
// Releasing it twice releases nothing more.
func (as *AddressSpace) Release() {
	if as.origin != nil {
		as.origin.Unprotect()
		as.origin = nil
	}
	as.pages = pageTable{}
	as.regions = nil
}
