package mem

import (
	"bytes"
	"fmt"
	"math/rand"
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
			as.ClearDirty()

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

// TestProtectMatchesSharedHeaders drives random writes, freezes,
// protections and releases (oldest first) through an address space and
// through refsModel: the same writes must fault, and the
// space must read what was written, with every frozen array as it was
// when frozen.
func TestProtectMatchesSharedHeaders(t *testing.T) {
	const pages = 6
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace()
		base, _ := as.Alloc(pages*PageSize, "heap")
		// A fault is the op that took it and its page.
		var got, want [][2]uint64
		op := 0
		as.SetFaultHook(func(pn uint64) { got = append(got, [2]uint64{uint64(op), pn}) })
		model := &refsModel{live: map[uint64]*modelPage{}}
		ref := make([]byte, pages*PageSize)
		type frozenArray struct{ array, bytes []byte }
		var frozen []frozenArray
		for ; op < 60; op++ {
			pn := base/PageSize + uint64(rng.Intn(pages))
			switch r := rng.Intn(10); {
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
			case r < 7:
				if d := as.PageData(pn); d != nil {
					as.FreezePage(pn)
					frozen = append(frozen, frozenArray{d, bytes.Clone(d)})
				}
			case r < 9:
				as.Protect()
				model.protect()
			case len(model.snaps) > 0:
				as.Unprotect()
				model.unprotect()
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: faults %v, the shared-header rule takes %v", seed, got, want)
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
