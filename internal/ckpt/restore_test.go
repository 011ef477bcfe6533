package ckpt

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cruz/internal/mem"
)

// restorableImage builds a full image of one memWorker process with the
// given number of distinct pages in one heap region.
func restorableImage(tb testing.TB, pages int) *Image {
	tb.Helper()
	const heap = 0x10000 * mem.PageSize
	prog, err := encodeProgram(&memWorker{Heap: heap, HeapSize: uint64(pages) * mem.PageSize, Iter: 3})
	if err != nil {
		tb.Fatal(err)
	}
	p := ProcImage{VPID: 1, Name: "w", ProgData: prog}
	p.Memory.Regions = []mem.Region{{Start: heap, Size: uint64(pages) * mem.PageSize, Name: "heap"}}
	data := make([]byte, pages*mem.PageSize)
	for i := 0; i < pages; i++ {
		page := data[i*mem.PageSize : (i+1)*mem.PageSize]
		page[0], page[1] = byte(i), byte(i>>8)
		p.Memory.addPage(heap/mem.PageSize+uint64(i), page)
	}
	return &Image{PodName: "r", Seq: 1, NextVPID: 2, Net: NetImage{IP: podIP(0), MAC: podMAC(0)}, Processes: []ProcImage{p}}
}

// TestRestoreAllocsIndependentOfPages: restoring a process costs the same
// number of allocations at 64 pages as at 2,048 — one slab of page
// headers, one page table, one dirty set — and, at 2,048, under 5 % of
// the page bytes: the restored space holds the image's own arrays.
func TestRestoreAllocsIndependentOfPages(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	// A collection empties every sync.Pool (gob's and fmt's among them),
	// and the refills would land on whichever restore followed it — the
	// more often, the bigger the image. So the collector is off while the
	// restores are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs [2]float64
	var alloc uint64
	for i, pages := range []int{64, 2048} {
		k, img := benchKernel(t), restorableImage(t, pages)
		allocs[i] = testing.AllocsPerRun(5, func() {
			pod, err := Restore(k, img)
			if err != nil {
				t.Fatal(err)
			}
			pod.Destroy()
		})
		alloc = allocated(func() {
			pod, err := Restore(k, img)
			if err != nil {
				t.Fatal(err)
			}
			pod.Destroy()
		})
		pod, err := Restore(k, img)
		if err != nil {
			t.Fatal(err)
		}
		as := pod.Process(1).Mem()
		m := &img.Processes[0].Memory
		if as.ResidentPages() != pages || as.DirtyPages() != pages {
			t.Fatalf("%d pages: restored %d resident, %d dirty", pages, as.ResidentPages(), as.DirtyPages())
		}
		for j, pn := range m.PageNums {
			if got := as.PageData(pn); &got[0] != &m.Page(j)[0] {
				t.Fatalf("%d pages: page %d is not the image's array", pages, pn)
			}
		}
		pod.Destroy()
		runtime.GC()
	}
	t.Logf("allocations per restore: %v at 64 pages, %v at 2,048; %d bytes at 2,048", allocs[0], allocs[1], alloc)
	if allocs[0] != allocs[1] {
		t.Errorf("a restore allocates %v times at 64 pages and %v at 2,048: its cost grows with the pages", allocs[0], allocs[1])
	}
	if pageBytes := uint64(2048 * mem.PageSize); alloc > pageBytes/20 {
		t.Errorf("a restore of 2,048 pages allocates %d bytes, over 5 %% of their %d", alloc, pageBytes)
	}
}
