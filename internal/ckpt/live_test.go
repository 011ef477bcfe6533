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
