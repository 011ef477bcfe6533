package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocAndRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	base, err := as.Alloc(10000, "heap")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox jumps over the lazy dog")
	if err := as.Write(base+100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(base+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip = %q, want %q", got, msg)
	}
}

func TestAllocRoundsToPages(t *testing.T) {
	as := NewAddressSpace()
	base, err := as.Alloc(1, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	r := as.Regions()[0]
	if r.Size != PageSize {
		t.Fatalf("region size = %d, want %d", r.Size, PageSize)
	}
	// The whole rounded page must be addressable.
	if err := as.Write(base+PageSize-1, []byte{1}); err != nil {
		t.Fatalf("write at end of rounded page: %v", err)
	}
}

func TestAllocZeroFails(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Alloc(0, "zero"); !errors.Is(err, ErrBadAlloc) {
		t.Fatalf("err = %v, want ErrBadAlloc", err)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(PageSize, "one")
	if err := as.Write(base+PageSize, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: err = %v, want ErrOutOfRange", err)
	}
	if err := as.Read(0, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read unmapped: err = %v, want ErrOutOfRange", err)
	}
	// A write spanning the region end must fail even if it starts inside.
	if err := as.Write(base+PageSize-2, []byte{1, 2, 3, 4}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("straddling write: err = %v, want ErrOutOfRange", err)
	}
}

func TestDemandZero(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(4*PageSize, "zeros")
	b := make([]byte, 100)
	for i := range b {
		b[i] = 0xFF
	}
	if err := as.Read(base+PageSize+5, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0 (demand-zero)", i, v)
		}
	}
	if as.ResidentPages() != 0 {
		t.Fatalf("reads materialized %d pages", as.ResidentPages())
	}
}

func TestCrossPageWrite(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(3*PageSize, "span")
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := as.Write(base+PageSize/2, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(base+PageSize/2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page write round trip mismatch")
	}
	if as.ResidentPages() != 3 {
		t.Fatalf("ResidentPages = %d, want 3", as.ResidentPages())
	}
}

func TestUint64RoundTrip(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(PageSize, "u64")
	const v = uint64(0xDEADBEEF_CAFEF00D)
	if err := as.WriteUint64(base+8, v); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadUint64(base + 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
}

func TestDirtyTracking(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(10*PageSize, "d")
	as.Write(base, make([]byte, 3*PageSize))
	if as.DirtyPages() != 3 {
		t.Fatalf("DirtyPages = %d, want 3", as.DirtyPages())
	}
	as.Keep(as.Cut())
	if as.DirtyPages() != 0 {
		t.Fatalf("DirtyPages after clear = %d", as.DirtyPages())
	}
	as.Write(base+5*PageSize, []byte{1})
	if as.DirtyPages() != 1 {
		t.Fatalf("DirtyPages = %d, want 1", as.DirtyPages())
	}
	pns := as.PageNumbers(true)
	if len(pns) != 1 || pns[0] != (base+5*PageSize)/PageSize {
		t.Fatalf("dirty page numbers = %v", pns)
	}
	if as.ResidentPages() != 4 {
		t.Fatalf("ResidentPages = %d, want 4", as.ResidentPages())
	}
}

// The dirty set was a bitset beside the page table; it is now read off
// the page table's write stamps. The two tests below keep the bitset's
// names and checks over that scan.

// checkDirtySet: the dirty set lists exactly want, once each, in
// ascending order and in one exact allocation, with the count to match.
func checkDirtySet(t *testing.T, as *AddressSpace, want map[uint64]bool) {
	t.Helper()
	got := as.PageNumbers(true)
	if len(got) != len(want) || cap(got) != len(got) || as.DirtyPages() != len(want) {
		t.Fatalf("%d dirty pages (cap %d), DirtyPages %d; want %d", len(got), cap(got), as.DirtyPages(), len(want))
	}
	if !slices.IsSorted(got) {
		t.Fatal("dirty pages not in ascending order")
	}
	for _, pn := range got {
		if !want[pn] {
			t.Fatalf("page %#x listed dirty but not written", pn)
		}
	}
}

// TestBitsetSetHasCount: each written page counts once, a rewrite adds
// nothing, the set grows below its first page, and unwritten pages stay
// out of it.
func TestBitsetSetHasCount(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(1<<14*PageSize, "wide")
	first := base/PageSize + 1<<13
	pns := []uint64{first, first, first - 1000, first + 64*100, base / PageSize}
	want := map[uint64]bool{}
	for _, pn := range pns {
		as.Write(pn*PageSize, []byte{1})
		want[pn] = true
		if as.DirtyPages() != len(want) {
			t.Fatalf("after writing %#x: DirtyPages = %d, want %d", pn, as.DirtyPages(), len(want))
		}
	}
	checkDirtySet(t, as, want)
	for _, pn := range []uint64{first + 1, first - 1, base/PageSize + 1} {
		if slices.Contains(as.PageNumbers(true), pn) {
			t.Fatalf("page %#x listed dirty but never written", pn)
		}
	}
	if as.ResidentPages() != len(want) {
		t.Fatalf("ResidentPages = %d, want %d", as.ResidentPages(), len(want))
	}
}

// TestBitsetPagesSortedAndReset: many scattered writes list in ascending
// order, a kept cut empties the set, and writes after it refill it.
func TestBitsetPagesSortedAndReset(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(1<<14*PageSize, "wide")
	rng := rand.New(rand.NewSource(7))
	want := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		pn := base/PageSize + uint64(rng.Intn(1<<14))
		as.Write(pn*PageSize, []byte{1})
		want[pn] = true
	}
	checkDirtySet(t, as, want)
	as.Keep(as.Cut())
	checkDirtySet(t, as, map[uint64]bool{})
	low, high := base/PageSize, base/PageSize+1<<14-1
	as.Write(high*PageSize, []byte{2})
	as.Write(low*PageSize, []byte{2})
	checkDirtySet(t, as, map[uint64]bool{low: true, high: true})
	if got := as.PageNumbers(true); got[0] != low || got[1] != high {
		t.Fatalf("refill after a kept cut: got %v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(PageSize, "s")
	as.Write(base, []byte("original"))
	snap := as.Snapshot()

	// Writing the original must not change the snapshot.
	as.Write(base, []byte("MUTATED!"))
	got := make([]byte, 8)
	if err := snap.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("snapshot sees %q, want %q", got, "original")
	}
	// And the original must see its own write.
	as.Read(base, got)
	if string(got) != "MUTATED!" {
		t.Fatalf("original sees %q", got)
	}
}

// TestSnapshotSharesUntilWrite: a snapshot holds the live space's
// arrays, copying none, until a write copies exactly the page it writes.
func TestSnapshotSharesUntilWrite(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(8*PageSize, "cow")
	as.Write(base, make([]byte, 8*PageSize))
	faults := 0
	as.SetFaultHook(func(uint64) { faults++ })
	snap := as.Snapshot()
	as.Keep(as.Cut())
	shared := func() int {
		n := 0
		for _, pn := range as.PageNumbers(false) {
			if &as.PageData(pn)[0] == &snap.PageData(pn)[0] {
				n++
			}
		}
		return n
	}
	if shared() != 8 {
		t.Fatalf("%d pages shared, want 8", shared())
	}
	as.Write(base, []byte{1}) // copies exactly one page
	if shared() != 7 || faults != 1 || as.DirtyPages() != 1 {
		t.Fatalf("after a write: %d pages shared, %d faults, %d dirty; want 7, 1, 1", shared(), faults, as.DirtyPages())
	}
	if snap.ResidentPages() != 8 || snap.PageData(base / PageSize)[0] != 0 {
		t.Fatalf("snapshot holds %d pages, first byte %d", snap.ResidentPages(), snap.PageData(base / PageSize)[0])
	}
}

func TestSnapshotWriteBreaksSharing(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(PageSize, "cow2")
	as.Write(base, []byte("base"))
	snap := as.Snapshot()
	// Writing through the snapshot must not disturb the original.
	snap.Write(base, []byte("snap"))
	got := make([]byte, 4)
	as.Read(base, got)
	if string(got) != "base" {
		t.Fatalf("original corrupted by snapshot write: %q", got)
	}
}

func TestInstallRegionAndPage(t *testing.T) {
	src := NewAddressSpace()
	base, _ := src.Alloc(2*PageSize, "img")
	src.Write(base, bytes.Repeat([]byte{0xAB}, 2*PageSize))

	dst := NewAddressSpace()
	for _, r := range src.Regions() {
		if err := dst.InstallRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	pns := src.PageNumbers(false)
	if err := dst.InstallPages(pns, func(i int) []byte { return bytes.Clone(src.PageData(pns[i])) }); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*PageSize)
	if err := dst.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 2*PageSize)) {
		t.Fatal("restored contents mismatch")
	}
	// New allocations in the restored space must not collide.
	nb, err := dst.Alloc(PageSize, "post")
	if err != nil {
		t.Fatal(err)
	}
	if nb < base+2*PageSize {
		t.Fatalf("post-restore alloc %#x collides with installed region", nb)
	}
}

// TestInstallPagesFillOneSlab: restored pages hold the image's arrays
// themselves, under headers carved from one slab, in order, and then
// behave as pages the process wrote itself: dirty, and held by a
// snapshot until a write copies the live side's page, faulting once and
// leaving the snapshot's bytes and the image's array as they were.
func TestInstallPagesFillOneSlab(t *testing.T) {
	src := NewAddressSpace()
	base, _ := src.Alloc(4*PageSize, "heap")
	for _, i := range []uint64{0, 2, 3} {
		src.Write(base+i*PageSize, bytes.Repeat([]byte{byte('a' + i)}, PageSize))
	}
	pns := src.PageNumbers(false)
	img := make([][]byte, len(pns))
	for i, pn := range pns {
		img[i] = bytes.Clone(src.PageData(pn))
	}
	dst := NewAddressSpace()
	for _, r := range src.Regions() {
		if err := dst.InstallRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.InstallPages(pns, func(i int) []byte { return img[i] }); err != nil {
		t.Fatal(err)
	}
	if got := dst.PageNumbers(false); !reflect.DeepEqual(got, pns) || dst.DirtyPages() != len(pns) {
		t.Fatalf("pages %v (%d dirty), want %v all dirty", got, dst.DirtyPages(), pns)
	}
	for i, pn := range pns {
		if &dst.PageData(pn)[0] != &img[i][0] {
			t.Fatalf("page %d does not hold the image's array", pn)
		}
		if i > 0 && uintptr(unsafe.Pointer(dst.pages.get(pn)))-uintptr(unsafe.Pointer(dst.pages.get(pns[i-1]))) != unsafe.Sizeof(Page{}) {
			t.Fatalf("page %d's header does not follow page %d's in one slab", pn, pns[i-1])
		}
	}
	faults := 0
	dst.SetFaultHook(func(uint64) { faults++ })
	snap := dst.Snapshot()
	if err := dst.Write(base, []byte("live")); err != nil {
		t.Fatal(err)
	}
	if snap.PageData(pns[0])[0] != 'a' || dst.PageData(pns[0])[0] != 'l' || img[0][0] != 'a' || faults != 1 {
		t.Fatalf("a write after the snapshot did not copy the live side's page away from the image's (%d faults)", faults)
	}
}

// TestWriteCopiesFrozenPage: a write to a page whose array an image holds
// — frozen in the space, in a snapshot of it before or after the
// snapshot's Release, or installed from the image — writes a private
// copy, made once, and leaves the image's array as it was. It is a
// write like any other: the page turns dirty and its cached hash goes.
// Only a page of a space a snapshot still protects takes a fault; a
// frozen array alone is no fault.
func TestWriteCopiesFrozenPage(t *testing.T) {
	old := bytes.Repeat([]byte{'o'}, PageSize)
	// written returns a space holding old at page pn, and its region.
	written := func() (as *AddressSpace, pn uint64) {
		as = NewAddressSpace()
		base, _ := as.Alloc(PageSize, "heap")
		as.Write(base, old)
		return as, base / PageSize
	}
	for _, c := range []struct {
		name   string
		freeze func(t *testing.T) (as *AddressSpace, pn uint64, img []byte)
		faults int
	}{
		{"frozen", func(t *testing.T) (*AddressSpace, uint64, []byte) {
			as, pn := written()
			as.FreezePage(pn)
			return as, pn, as.PageData(pn)
		}, 0},
		{"frozen in a snapshot", func(t *testing.T) (*AddressSpace, uint64, []byte) {
			as, pn := written()
			snap := as.Snapshot()
			snap.FreezePage(pn)
			return as, pn, snap.PageData(pn)
		}, 1},
		{"frozen in a released snapshot", func(t *testing.T) (*AddressSpace, uint64, []byte) {
			as, pn := written()
			snap := as.Snapshot()
			snap.FreezePage(pn)
			defer snap.Release()
			return as, pn, snap.PageData(pn)
		}, 0},
		{"installed", func(t *testing.T) (*AddressSpace, uint64, []byte) {
			src, pn := written()
			img := bytes.Clone(old)
			as := NewAddressSpace()
			if err := as.InstallRegion(src.Regions()[0]); err != nil {
				t.Fatal(err)
			}
			if err := as.InstallPages([]uint64{pn}, func(int) []byte { return img }); err != nil {
				t.Fatal(err)
			}
			return as, pn, img
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			as, pn, img := c.freeze(t)
			base := pn * PageSize
			faults := 0
			as.SetFaultHook(func(uint64) { faults++ })
			as.PageHash(pn)
			as.Keep(as.Cut())
			hashes := as.HashComputes()

			if err := as.Write(base, []byte("new")); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, old) {
				t.Fatalf("the write reached the image's array: %q…", img[:4])
			}
			got := make([]byte, 4)
			if err := as.Read(base, got); err != nil || string(got) != "newo" {
				t.Fatalf("the space reads %q (%v), want %q", got, err, "newo")
			}
			if as.DirtyPages() != 1 || faults != c.faults {
				t.Fatalf("%d dirty, %d faults; want 1 dirty, %d faults", as.DirtyPages(), faults, c.faults)
			}
			if as.PageHash(pn); as.HashComputes() != hashes+1 {
				t.Fatal("the write kept the page's cached hash")
			}
			copied := &as.PageData(pn)[0]
			if err := as.Write(base+3, []byte("er")); err != nil {
				t.Fatal(err)
			}
			if &as.PageData(pn)[0] != copied || faults != c.faults || !bytes.Equal(img, old) {
				t.Fatal("a second write copied the page again")
			}
		})
	}
}

func TestInstallRegionOverlapRejected(t *testing.T) {
	as := NewAddressSpace()
	if err := as.InstallRegion(Region{Start: 0x10000, Size: 2 * PageSize}); err != nil {
		t.Fatal(err)
	}
	err := as.InstallRegion(Region{Start: 0x10000 + PageSize, Size: PageSize})
	if !errors.Is(err, ErrBadAlloc) {
		t.Fatalf("overlap err = %v, want ErrBadAlloc", err)
	}
}

func TestInstallPageValidation(t *testing.T) {
	as := NewAddressSpace()
	page := func(n int) func(int) []byte { return func(int) []byte { return make([]byte, n) } }
	if err := as.InstallPages([]uint64{5}, page(10)); !errors.Is(err, ErrBadAlloc) {
		t.Fatalf("short page err = %v", err)
	}
	if err := as.InstallPages([]uint64{5}, page(PageSize)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("uncovered page err = %v", err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var as AddressSpace
	if _, err := as.Alloc(PageSize, "z"); err != nil {
		t.Fatal(err)
	}
}

// Property: a sequence of random writes followed by reads behaves exactly
// like a flat reference buffer.
func TestPropertyWriteReadMatchesReference(t *testing.T) {
	const regionSize = 8 * PageSize
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		as := NewAddressSpace()
		base, _ := as.Alloc(regionSize, "ref")
		ref := make([]byte, regionSize)
		for _, op := range ops {
			off := uint64(op.Off) % regionSize
			data := op.Data
			if max := regionSize - off; uint64(len(data)) > max {
				data = data[:max]
			}
			if err := as.Write(base+off, data); err != nil {
				return false
			}
			copy(ref[off:], data)
		}
		got := make([]byte, regionSize)
		if err := as.Read(base, got); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots taken at arbitrary points remain equal to the
// reference state captured at the same point, regardless of later writes.
func TestPropertySnapshotImmutability(t *testing.T) {
	const regionSize = 4 * PageSize
	f := func(rounds []struct {
		Off  uint16
		Val  byte
		Snap bool
	}) bool {
		as := NewAddressSpace()
		base, _ := as.Alloc(regionSize, "ref")
		ref := make([]byte, regionSize)
		type pair struct {
			snap *AddressSpace
			ref  []byte
		}
		var snaps []pair
		for _, r := range rounds {
			if r.Snap {
				rc := make([]byte, regionSize)
				copy(rc, ref)
				snaps = append(snaps, pair{as.Snapshot(), rc})
			}
			off := uint64(r.Off) % regionSize
			if err := as.Write(base+off, []byte{r.Val}); err != nil {
				return false
			}
			ref[off] = r.Val
		}
		for _, p := range snaps {
			got := make([]byte, regionSize)
			if err := p.snap.Read(base, got); err != nil {
				return false
			}
			if !bytes.Equal(got, p.ref) {
				return false
			}
		}
		got := make([]byte, regionSize)
		as.Read(base, got)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPageHashCachesUntilWrite(t *testing.T) {
	as := NewAddressSpace()
	base, err := as.Alloc(4*PageSize, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Write(base, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pn := base / PageSize
	h1 := as.PageHash(pn)
	if got := as.HashComputes(); got != 1 {
		t.Fatalf("HashComputes = %d, want 1", got)
	}
	// Clean page: repeated hashing must hit the cache.
	for i := 0; i < 10; i++ {
		if as.PageHash(pn) != h1 {
			t.Fatal("cached hash changed without a write")
		}
	}
	if got := as.HashComputes(); got != 1 {
		t.Fatalf("clean page re-hashed: HashComputes = %d, want 1", got)
	}
	// A write invalidates exactly that page's cache.
	if err := as.Write(base, []byte{9}); err != nil {
		t.Fatal(err)
	}
	h2 := as.PageHash(pn)
	if h2 == h1 {
		t.Fatal("hash unchanged after content changed")
	}
	if got := as.HashComputes(); got != 2 {
		t.Fatalf("HashComputes = %d, want 2", got)
	}
}

func TestPageHashContentAddressed(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(4*PageSize, "h")
	payload := []byte("same content on two different pages")
	as.Write(base, payload)
	as.Write(base+PageSize, payload)
	as.Write(base+2*PageSize, []byte("different content"))
	p0 := as.PageHash(base / PageSize)
	p1 := as.PageHash(base/PageSize + 1)
	p2 := as.PageHash(base/PageSize + 2)
	if p0 != p1 {
		t.Fatal("identical pages hash differently")
	}
	if p0 == p2 {
		t.Fatal("different pages collide")
	}
	// A never-materialized page hashes as the zero page, equal to an
	// explicitly zeroed one.
	zeroed := make([]byte, PageSize)
	as.Write(base+3*PageSize, zeroed)
	if as.PageHash(base/PageSize+3) != as.PageHash(base/PageSize+100000) {
		t.Fatal("zeroed page and unmaterialized page hash differently")
	}
}

func TestPageHashSurvivesSnapshotSharing(t *testing.T) {
	as := NewAddressSpace()
	base, _ := as.Alloc(PageSize, "h")
	as.Write(base, []byte{42})
	pn := base / PageSize
	orig := as.PageHash(pn)

	snap := as.Snapshot()
	// The snapshot's header carries the cached hash, so it is free.
	if snap.PageHash(pn) != orig {
		t.Fatal("snapshot hash differs from original")
	}
	if snap.HashComputes() != 0 {
		t.Fatal("snapshot recomputed a cached hash")
	}
	// The writer's copy is invalidated, the snapshot keeps the old
	// contents and the old (still valid) hash.
	as.Write(base, []byte{43})
	if snap.PageHash(pn) != orig {
		t.Fatal("snapshot hash changed after writer's COW break")
	}
	if as.PageHash(pn) == orig {
		t.Fatal("writer hash unchanged after COW write")
	}
}

// BenchmarkDirtyTracking times what a pre-copy round does to the dirty
// set: writes to 8,192 scattered pages, the sorted scan of the page
// table's stamps a capture lists, and the kept cut that cleans them.
func BenchmarkDirtyTracking(b *testing.B) {
	const pages = 8192
	as := NewAddressSpace()
	base, _ := as.Alloc(4*pages*PageSize, "heap")
	pns := make([]uint64, pages)
	rng := rand.New(rand.NewSource(21))
	for i := range pns {
		pns[i] = base/PageSize + uint64(rng.Intn(4*pages))
		as.Write(pns[i]*PageSize, []byte{1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pn := range pns {
			as.Write(pn*PageSize, []byte{byte(i)})
		}
		dirtySink = as.PageNumbers(true)
		as.Keep(as.Cut())
	}
}

var dirtySink []uint64
