// Package mem implements the virtual-memory substrate of the simulated
// kernel: sparse, page-based address spaces with dirty-page tracking and
// copy-on-write snapshots.
//
// The contents of address spaces dominate checkpoint image size, exactly as
// the paper observes ("most of the state consists of the non-zero contents
// of the virtual memory of all processes running in the pod"). Dirty
// tracking supports the incremental-checkpoint optimization and COW
// snapshots support the concurrent-checkpoint optimization discussed in
// §5.2 of the paper.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the size of a virtual-memory page in bytes, matching the
// i386 Linux systems of the paper's testbed.
const PageSize = 4096

// Page is one page of memory. Pages are only materialized when written, so
// untouched regions cost nothing in either RAM or checkpoint images.
type Page struct {
	Data [PageSize]byte
	// refs counts address spaces sharing this page under copy-on-write.
	refs int
	// version counts writes to this page's content lineage. A COW break
	// carries the version over to the private copy and then increments
	// it, so a snapshot's page keeps the version it had when the
	// snapshot was taken — capture code can assert it read a consistent
	// image even though the owning pod kept running.
	version uint64
	// hash caches the page's content hash; hashed says whether it is
	// current. The write path (writablePage) invalidates it, so clean
	// pages are hashed at most once between writes no matter how many
	// checkpoints inspect them.
	hash   PageHash
	hashed bool
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
	dirty   Bitset // pages written since last ClearDirty
	regions []Region
	next    uint64 // next allocation address (bump allocator)

	// faultHook, when set, observes every copy-on-write break (a write
	// to a page shared with a snapshot). The kernel wires it to charge
	// the write fault's cost to the running process — the runtime price
	// of checkpointing concurrently with execution.
	faultHook func(pn uint64)

	// hashComputes counts fresh page-hash computations performed through
	// this address space (cache misses); checkpoint code uses the delta
	// across a capture to charge simulated hashing cost for exactly the
	// pages that were re-hashed.
	hashComputes uint64
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

// SetFaultHook installs fn to run on every copy-on-write break in this
// address space (nil removes it). The hook fires before the write
// proceeds, once per page per snapshot generation — exactly when a real
// kernel would take a write-protection fault on a snapshotted page.
func (as *AddressSpace) SetFaultHook(fn func(pn uint64)) { as.faultHook = fn }

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

// writablePage returns the page containing page-number pn, materializing
// it and breaking copy-on-write sharing as needed.
func (as *AddressSpace) writablePage(pn uint64) *Page {
	p := as.pages.get(pn)
	switch {
	case p == nil:
		p = &Page{refs: 1}
		as.pages.set(pn, p)
	case p.refs > 1:
		// Copy-on-write break: give this address space a private copy.
		// The snapshot keeps the shared page (and its version) intact;
		// only the live side's lineage advances.
		p.refs--
		np := &Page{Data: p.Data, refs: 1, version: p.version}
		as.pages.set(pn, np)
		p = np
		if as.faultHook != nil {
			as.faultHook(pn)
		}
	}
	as.dirty.Set(pn)
	p.version++
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
		n := copy(as.writablePage(pn).Data[off:], b)
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
			n = copy(b, p.Data[off:])
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

// ResidentBytes returns the materialized memory size in bytes. This is
// what a full checkpoint must write to stable storage.
func (as *AddressSpace) ResidentBytes() uint64 { return uint64(as.pages.n) * PageSize }

// DirtyPages returns the number of pages written since the last ClearDirty.
func (as *AddressSpace) DirtyPages() int { return as.dirty.Count() }

// DirtyBytes returns DirtyPages in bytes; an incremental checkpoint writes
// only this much.
func (as *AddressSpace) DirtyBytes() uint64 { return uint64(as.dirty.Count()) * PageSize }

// ClearDirty resets dirty-page tracking, typically right after a
// checkpoint captures the space. The bitset's storage is kept, so the
// per-round clear of a pre-copy loop allocates nothing.
func (as *AddressSpace) ClearDirty() {
	as.dirty.Reset()
}

// MarkDirty re-marks a page dirty without writing it. The checkpoint
// abort path uses it to undo a round's ClearDirty: pages whose only
// up-to-date copy lived in a discarded pre-copy round must be saved
// again by the next capture.
func (as *AddressSpace) MarkDirty(pn uint64) {
	as.init()
	as.dirty.Set(pn)
}

// PageNumbers returns the sorted page numbers of materialized pages. If
// dirtyOnly is set, only pages dirtied since the last ClearDirty are
// returned. Both the page table and the dirty bitset iterate in ascending
// order, so no sort is needed.
func (as *AddressSpace) PageNumbers(dirtyOnly bool) []uint64 {
	if dirtyOnly {
		return as.dirty.Pages()
	}
	out := make([]uint64, 0, as.pages.n)
	as.pages.forEach(func(pn uint64, _ *Page) { out = append(out, pn) })
	return out
}

// PageData returns the contents of page pn. The returned slice aliases the
// live page and must not be modified; checkpoint code copies it into the
// image.
func (as *AddressSpace) PageData(pn uint64) []byte {
	if p := as.pages.get(pn); p != nil {
		return p.Data[:]
	}
	return nil
}

// InstallPages writes whole pages, page pns[i] from data(i), each of
// which must lie in a mapped region. It is used by restore, which replays
// a process's pages from a checkpoint image into a fresh address space:
// the pages it materialises are carved from one slab, and the page table
// and dirty set are sized for all of them at once, so a process costs the
// same few allocations however many pages it has. A page written as
// usual afterwards stays where it is; a copy-on-write break moves the
// live side off it, as off any page.
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
	as.dirty.reserve(lo, hi)
	slab := make([]Page, len(pns))
	for i, pn := range pns {
		d := data(i)
		if len(d) != PageSize {
			return fmt.Errorf("%w: page data must be %d bytes, got %d", ErrBadAlloc, PageSize, len(d))
		}
		addr := pn * PageSize
		if as.regionFor(addr) == nil {
			return fmt.Errorf("%w: page %#x not covered by a region", ErrOutOfRange, addr)
		}
		if as.pages.get(pn) == nil {
			slab[i].refs = 1
			as.pages.set(pn, &slab[i])
		}
		copy(as.writablePage(pn).Data[:], d)
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

// Snapshot returns a copy-on-write clone of the address space: both the
// original and the clone see the current contents, pages are shared until
// either side writes. Snapshot is O(resident pages) in map work but copies
// no page data, which is what lets a checkpoint proceed concurrently with
// application execution: the snapshot "write-protects" every shared page,
// and the live side's write path lazily duplicates a page on its first
// post-snapshot write (firing the fault hook), leaving the snapshot's
// copy — and its version counter — frozen at the snapshot instant.
func (as *AddressSpace) Snapshot() *AddressSpace {
	as.init()
	clone := &AddressSpace{
		pages:   as.pages.clone(),
		next:    as.next,
		regions: make([]Region, len(as.regions)),
	}
	copy(clone.regions, as.regions)
	as.pages.forEach(func(_ uint64, p *Page) { p.refs++ })
	return clone
}

// Release drops a snapshot's copy-on-write sharing: every page the
// snapshot still shares with its origin returns to sole ownership, so
// later writes in the live space stop paying COW breaks (and stop firing
// the fault hook). The snapshot must not be used after Release. Calling
// Release on a live space that snapshots were taken FROM — rather than
// on the snapshot itself — would corrupt the sharing counts.
func (as *AddressSpace) Release() {
	as.pages.forEach(func(_ uint64, p *Page) { p.refs-- })
	as.pages = pageTable{}
	as.regions = nil
}

// PageVersion returns page pn's write-version counter (0 for a page that
// was never written). A snapshot's versions never change, which is the
// consistency invariant concurrent capture relies on; the live space's
// version advances on every write, including the one that breaks COW.
func (as *AddressSpace) PageVersion(pn uint64) uint64 {
	if p := as.pages.get(pn); p != nil {
		return p.version
	}
	return 0
}

// SharedPages reports how many of the space's pages are currently shared
// with a snapshot (refs > 1). Useful in tests and ablation benchmarks.
func (as *AddressSpace) SharedPages() int {
	n := 0
	as.pages.forEach(func(_ uint64, p *Page) {
		if p.refs > 1 {
			n++
		}
	})
	return n
}
