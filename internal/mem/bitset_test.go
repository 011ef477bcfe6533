package mem

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBitsetSetHasCount(t *testing.T) {
	var b Bitset
	pns := []uint64{0x8048, 0x8048, 0x9000, 0x8000, 0x8048 + 64*1000, 3}
	want := map[uint64]bool{}
	for _, pn := range pns {
		fresh := !want[pn]
		if got := b.Set(pn); got != fresh {
			t.Fatalf("Set(%#x) = %v, want %v", pn, got, fresh)
		}
		want[pn] = true
	}
	if b.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(want))
	}
	for pn := range want {
		if !b.Has(pn) {
			t.Fatalf("Has(%#x) = false after Set", pn)
		}
	}
	if b.Has(0x8049) || b.Has(0) {
		t.Fatal("Has reports unset pages")
	}
}

func TestBitsetPagesSortedAndReset(t *testing.T) {
	var b Bitset
	rng := rand.New(rand.NewSource(7))
	want := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		pn := 0x8000 + uint64(rng.Intn(1<<14))
		b.Set(pn)
		want[pn] = true
	}
	got := b.Pages()
	if len(got) != len(want) {
		t.Fatalf("Pages returned %d pns, want %d", len(got), len(want))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Pages not sorted ascending")
	}
	for _, pn := range got {
		if !want[pn] {
			t.Fatalf("Pages returned unset pn %#x", pn)
		}
	}
	b.Reset()
	if b.Count() != 0 || len(b.Pages()) != 0 {
		t.Fatal("Reset did not clear the set")
	}
	// Reset keeps storage: refilling must work and stay sorted.
	b.Set(42)
	b.Set(0x8000)
	if got := b.Pages(); len(got) != 2 || got[0] != 42 || got[1] != 0x8000 {
		t.Fatalf("refill after Reset: got %v", got)
	}
}

// TestPageVersionAdvancesOnWrite: with no protection held, writes land
// in place, turn their page dirty and fault nothing.
func TestPageVersionAdvancesOnWrite(t *testing.T) {
	as := NewAddressSpace()
	base, err := as.Alloc(4*PageSize, "heap")
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	as.SetFaultHook(func(uint64) { faults++ })
	as.Write(base, []byte{1})
	first := &as.PageData(base / PageSize)[0]
	as.ClearDirty()
	as.Write(base, []byte{2})
	if *first != 2 || &as.PageData(base / PageSize)[0] != first {
		t.Fatal("the second write did not land in the page's array")
	}
	if pns := as.PageNumbers(true); len(pns) != 1 || pns[0] != base/PageSize || faults != 0 {
		t.Fatalf("dirty %v, %d faults; want page %#x alone and none", pns, faults, base/PageSize)
	}
}

// TestSnapshotFreezesVersionsAndFiresFaultHook: a snapshot keeps the
// bytes of its instant, and the live side's first write to a page the
// snapshot holds faults once; a second write, or a write materialising a
// page, does not.
func TestSnapshotFreezesVersionsAndFiresFaultHook(t *testing.T) {
	as := NewAddressSpace()
	base, err := as.Alloc(4*PageSize, "heap")
	if err != nil {
		t.Fatal(err)
	}
	pn := base / PageSize
	as.Write(base, []byte{1})

	var faults []uint64
	as.SetFaultHook(func(pn uint64) { faults = append(faults, pn) })
	snap := as.Snapshot()
	as.ClearDirty()

	as.Write(base, []byte{2})
	as.Write(base, []byte{3}) // second write: already faulted
	as.Write(base+PageSize, []byte{9})

	var got [1]byte
	snap.Read(base, got[:])
	if got[0] != 1 {
		t.Fatalf("snapshot sees post-snapshot write: %d", got[0])
	}
	as.Read(base, got[:])
	if got[0] != 3 {
		t.Fatalf("live space reads %d, want 3", got[0])
	}
	if len(faults) != 1 || faults[0] != pn {
		t.Fatalf("fault hook fired %v, want exactly one fault on %#x", faults, pn)
	}
	if as.DirtyPages() != 2 || snap.DirtyPages() != 0 {
		t.Fatalf("%d live and %d snapshot pages dirty, want 2 and 0", as.DirtyPages(), snap.DirtyPages())
	}
}

// BenchmarkDirtyTracking is the satellite micro-benchmark: the dirty set
// is scanned (sorted) every pre-copy round, so track + sorted-iterate is
// the operation that matters. The bitset wins on both the write path and
// the scan (no per-entry allocation, no sort).
func BenchmarkDirtyTracking(b *testing.B) {
	const pages = 8192
	pns := make([]uint64, pages)
	rng := rand.New(rand.NewSource(21))
	for i := range pns {
		pns[i] = 0x8048 + uint64(rng.Intn(4*pages))
	}

	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		var set Bitset
		var total int
		for i := 0; i < b.N; i++ {
			for _, pn := range pns {
				set.Set(pn)
			}
			set.ForEach(func(uint64) { total++ })
			set.Reset()
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		var total int
		for i := 0; i < b.N; i++ {
			set := make(map[uint64]bool)
			for _, pn := range pns {
				set[pn] = true
			}
			out := make([]uint64, 0, len(set))
			for pn := range set {
				out = append(out, pn)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			total += len(out)
		}
	})
}
