package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestProtect: under a protection the first write to each page the space
// held faults and the second does not; a page materialised under it
// never faults; a frozen page copies once whether protected or not, and
// faults only while protected.
func TestProtect(t *testing.T) {
	old := bytes.Repeat([]byte{'o'}, PageSize)
	for _, c := range []struct {
		name string
		// prep readies page pn, written to hold old when written is set.
		prep          func(as *AddressSpace, pn uint64)
		written, copy bool
		faults        int
	}{
		{"unprotected", func(*AddressSpace, uint64) {}, true, false, 0},
		{"protected", func(as *AddressSpace, _ uint64) { as.Protect() }, true, false, 1},
		{"materialised under the protection", func(as *AddressSpace, _ uint64) { as.Protect() }, false, false, 0},
		{"frozen and protected", func(as *AddressSpace, pn uint64) {
			as.FreezePage(pn)
			as.Protect()
		}, true, true, 1},
		{"frozen after Unprotect", func(as *AddressSpace, pn uint64) {
			as.FreezePage(pn)
			as.Protect()
			as.Unprotect()
		}, true, true, 0},
		{"faulted, then protected again", func(as *AddressSpace, pn uint64) {
			as.Protect()
			as.Write(pn*PageSize, old[:1])
			as.Unprotect()
			as.Protect()
		}, true, false, 1},
		{"two protections, the oldest released", func(as *AddressSpace, _ uint64) {
			as.Protect()
			as.Protect()
			as.Unprotect()
		}, true, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			as := NewAddressSpace()
			base, _ := as.Alloc(PageSize, "heap")
			pn := base / PageSize
			if c.written {
				as.Write(base, old)
			}
			before := as.PageData(pn)
			c.prep(as, pn)
			faults := 0
			as.SetFaultHook(func(uint64) { faults++ })
			as.Keep(as.Cut())

			if err := as.Write(base, []byte("new")); err != nil {
				t.Fatal(err)
			}
			if faults != c.faults || as.DirtyPages() != 1 {
				t.Fatalf("first write: %d faults, %d dirty; want %d, 1", faults, as.DirtyPages(), c.faults)
			}
			if copied := before != nil && &as.PageData(pn)[0] != &before[0]; copied != c.copy {
				t.Fatalf("first write copied the page: %v, want %v", copied, c.copy)
			}
			if c.copy && !bytes.Equal(before, old) {
				t.Fatalf("the write reached the frozen array: %q…", before[:4])
			}
			after := &as.PageData(pn)[0]
			if err := as.Write(base+3, []byte("er")); err != nil {
				t.Fatal(err)
			}
			if faults != c.faults || &as.PageData(pn)[0] != after {
				t.Fatalf("second write: %d faults (want %d), copied again: %v", faults, c.faults, &as.PageData(pn)[0] != after)
			}
			got := make([]byte, 6)
			as.Read(base, got)
			if want := "newero"; c.written && string(got) != want {
				t.Fatalf("the space reads %q, want %q", got, want)
			}
		})
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
	as.Keep(as.Cut())
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
	as.Keep(as.Cut())

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

// refsModel is the copy-on-write rule protection replaces: a protection
// is a snapshot sharing every page header the space holds, and a write
// to a header more than one holder shares breaks away a private one and
// faults. (A frozen array is copied whether or not that faults.)
type refsModel struct {
	live  map[uint64]*modelPage
	snaps []map[uint64]*modelPage // oldest first
}

type modelPage struct{ refs int }

// write reports whether writing page pn faults.
func (m *refsModel) write(pn uint64) bool {
	p := m.live[pn]
	if p == nil || p.refs > 1 {
		if p != nil {
			p.refs--
		}
		m.live[pn] = &modelPage{refs: 1}
		return p != nil
	}
	return false
}

func (m *refsModel) protect() {
	snap := make(map[uint64]*modelPage, len(m.live))
	for pn, p := range m.live {
		p.refs++
		snap[pn] = p
	}
	m.snaps = append(m.snaps, snap)
}

func (m *refsModel) unprotect() {
	for _, p := range m.snaps[0] {
		p.refs--
	}
	m.snaps = m.snaps[1:]
}

// dirtyModel is the dirty rule write stamps keep, in op numbers: a page
// is dirty when its last write came after the last kept capture, and
// discarding that capture makes the kept one before it the last again.
type dirtyModel struct {
	written map[uint64]int // page -> op of its last write
	kept    []int          // ops of the kept captures, oldest first
}

func (m *dirtyModel) dirty() []uint64 {
	at := -1
	if len(m.kept) > 0 {
		at = m.kept[len(m.kept)-1]
	}
	var out []uint64
	for pn, op := range m.written {
		if op > at {
			out = append(out, pn)
		}
	}
	slices.Sort(out)
	return out
}

// TestProtectMatchesSharedHeaders drives random writes, freezes,
// protections, releases (oldest first), incremental captures, keeps and
// discards through an address space and through two models. The same
// writes must fault as under refsModel, and each capture must list the
// pages dirtyModel holds dirty. A capture cuts a generation; keeping the
// newest capture moves the base to it, and discarding the last kept one
// puts back the base it found, with any capture not yet kept — an aborted
// epoch. On even seeds every capture is kept at once and none is
// discarded, and the dirty set must also be the one a capture clears
// (the rule before write stamps). The space must read what was written,
// with every frozen array as it was when frozen.
func TestProtectMatchesSharedHeaders(t *testing.T) {
	const pages = 6
	type capture struct {
		op        int
		gen, kept uint64
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		atOnce := seed%2 == 0
		as := NewAddressSpace()
		base, _ := as.Alloc(pages*PageSize, "heap")
		// A fault is the op that took it and its page.
		var got, want [][2]uint64
		op := 0
		as.SetFaultHook(func(pn uint64) { got = append(got, [2]uint64{uint64(op), pn}) })
		model := &refsModel{live: map[uint64]*modelPage{}}
		dirty := &dirtyModel{written: map[uint64]int{}}
		cleared := map[uint64]bool{} // dirty since the last capture
		var pending *capture
		var kept []capture
		keep := func() {
			as.Keep(pending.gen)
			kept = append(kept, *pending)
			dirty.kept = append(dirty.kept, pending.op)
			pending = nil
		}
		ref := make([]byte, pages*PageSize)
		type frozenArray struct{ array, bytes []byte }
		var frozen []frozenArray
		for ; op < 80; op++ {
			pn := base/PageSize + uint64(rng.Intn(pages))
			switch r := rng.Intn(14); {
			case r < 5:
				off := int(pn-base/PageSize)*PageSize + rng.Intn(PageSize-8)
				b := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
				if err := as.Write(base+uint64(off), b); err != nil {
					t.Fatal(err)
				}
				copy(ref[off:], b)
				if model.write(pn) {
					want = append(want, [2]uint64{uint64(op), pn})
				}
				dirty.written[pn] = op
				cleared[pn] = true
			case r < 7:
				if d := as.PageData(pn); d != nil {
					as.FreezePage(pn)
					frozen = append(frozen, frozenArray{d, bytes.Clone(d)})
				}
			case r < 9:
				as.Protect()
				model.protect()
			case r < 10:
				if len(model.snaps) > 0 {
					as.Unprotect()
					model.unprotect()
				}
			case r < 12:
				pns := as.PageNumbers(true)
				if w := dirty.dirty(); fmt.Sprint(pns) != fmt.Sprint(w) || as.DirtyPages() != len(w) {
					t.Fatalf("seed %d op %d: capture lists %v (%d dirty), the model %v", seed, op, pns, as.DirtyPages(), w)
				}
				var c []uint64
				for pn := range cleared {
					c = append(c, pn)
				}
				if slices.Sort(c); atOnce && fmt.Sprint(pns) != fmt.Sprint(c) {
					t.Fatalf("seed %d op %d: %v dirty, %v written since the last capture", seed, op, pns, c)
				}
				pending = &capture{op: op, kept: as.Kept(), gen: as.Cut()}
				clear(cleared)
				if atOnce {
					keep()
				}
			case r < 13:
				if pending != nil {
					keep()
				}
			case !atOnce && len(kept) > 0:
				as.Keep(kept[len(kept)-1].kept)
				kept = kept[:len(kept)-1]
				dirty.kept = dirty.kept[:len(dirty.kept)-1]
				pending = nil
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: faults %v, the shared-header rule takes %v", seed, got, want)
		}
		if pns, w := as.PageNumbers(true), dirty.dirty(); fmt.Sprint(pns) != fmt.Sprint(w) {
			t.Fatalf("seed %d: %v dirty at the end, the model %v", seed, pns, w)
		}
		read := make([]byte, len(ref))
		if err := as.Read(base, read); err != nil || !bytes.Equal(read, ref) {
			t.Fatalf("seed %d: the space reads other bytes than were written (%v)", seed, err)
		}
		for i, f := range frozen {
			if !bytes.Equal(f.array, f.bytes) {
				t.Fatalf("seed %d: frozen array %d was written", seed, i)
			}
		}
	}
}
