package ckpt

import (
	"testing"

	"cruz/internal/mem"
)

// TestLiveCaptureFaultsUntilRelease: a live round write-protects its pod
// until Release. The first write to each page the round held is a fault
// the kernel counts, and a second write to it is not; after Release no
// write faults. A round released twice, as an epoch aborted after the
// round landed releases it (once as it lands, once more with every
// round), leaves the next round's protection whole: its first write
// still faults.
func TestLiveCaptureFaultsUntilRelease(t *testing.T) {
	for _, hashes := range []bool{false, true} {
		pod := benchPod(t, 64)
		as := pod.Process(1).Mem()
		stats := &pod.Kernel().Stats
		pns := as.PageNumbers(false)
		write := func(pn uint64) {
			if err := as.Write(pn*mem.PageSize, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		capture := func(seq int) *LiveCapture {
			lc, err := CaptureLive(pod, seq, Options{Incremental: seq > 1, Hashes: hashes, BaseSeq: seq - 1})
			if err != nil {
				t.Fatal(err)
			}
			Keep(pod, lc.Image)
			return lc
		}

		lc := capture(1)
		base := stats.CowFaults
		write(pns[0])
		write(pns[0])
		write(pns[1])
		if n := stats.CowFaults - base; n != 2 {
			t.Fatalf("hashes=%v: writes to two captured pages took %d faults, want 2", hashes, n)
		}
		lc.Release()
		lc.Release()
		write(pns[2])
		if n := stats.CowFaults - base; n != 2 {
			t.Fatalf("hashes=%v: a write after Release faulted (%d faults)", hashes, n)
		}

		next := capture(2)
		write(pns[3])
		if n := stats.CowFaults - base; n != 3 {
			t.Fatalf("hashes=%v: the round after a twice-released one took %d faults, want 1", hashes, n-2)
		}
		next.Release()
	}
}

// TestKeepAndRewindMoveTheDirtyBase: a capture leaves the pod's dirty
// pages as they were; keeping its image cleans exactly what it saved, and
// rewinding to an aborted epoch's first kept image dirties again every
// page written since the base that image found — all of a process born
// after it.
func TestKeepAndRewindMoveTheDirtyBase(t *testing.T) {
	pod := benchPod(t, 64)
	as := pod.Process(1).Mem()
	pns := as.PageNumbers(false)
	write := func(as *mem.AddressSpace, pns ...uint64) {
		for _, pn := range pns {
			if err := as.Write(pn*mem.PageSize, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirty := func(as *mem.AddressSpace, want int) {
		t.Helper()
		if got := as.DirtyPages(); got != want {
			t.Fatalf("%d pages dirty, want %d", got, want)
		}
	}
	full, err := Capture(pod, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dirty(as, len(pns))
	Keep(pod, full)
	dirty(as, 0)

	write(as, pns[1], pns[2])
	round, err := CaptureLive(pod, 2, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	write(as, pns[3])
	dirty(as, 3)
	Keep(pod, round.Image)
	round.Release()
	dirty(as, 1)
	if got := round.Image.Processes[0].Memory.PageNums; len(got) != 2 || got[0] != pns[1] || got[1] != pns[2] {
		t.Fatalf("the round saved pages %v, want %v", got, pns[1:3])
	}

	proc, err := pod.SpawnAt("late", &memWorker{HeapSize: 4 * mem.PageSize}, 2)
	if err != nil {
		t.Fatal(err)
	}
	late := proc.Mem()
	heap, err := late.Alloc(4*mem.PageSize, "heap")
	if err != nil {
		t.Fatal(err)
	}
	write(late, heap/mem.PageSize, heap/mem.PageSize+1)
	resid, err := Capture(pod, 3, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	Keep(pod, resid)
	dirty(as, 0)
	dirty(late, 0)

	Rewind(pod, round.Image)
	dirty(as, 3)
	dirty(late, 2)
}
