package tcpip

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"cruz/internal/sim"
)

// TestSendRefCrossesUncopied: bytes handed to SendRef reach the peer's
// RecvRef as slices of the sender's own array, at the right offsets, and
// no segment draws a pooled buffer: every window-sized hand-off of the
// array continues the run before it.
func TestSendRefCrossesUncopied(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 9100)
	blob := pattern(256<<10, 4)
	src := tn.stacks[0]
	draws := src.Stats.SegPoolHits + src.Stats.SegPoolMisses

	var pieces [][]byte
	sent, rcvd := 0, 0
	for rcvd < len(blob) {
		if sent < len(blob) {
			n, err := c.SendRef(blob[sent:])
			if err != nil && err != ErrWouldBlock {
				t.Fatal(err)
			}
			sent += n
		}
		tn.run(sim.Millisecond)
		var n int
		var err error
		pieces, _, n, err = s.RecvRef(pieces, nil, len(blob)-rcvd)
		if err != nil && err != ErrWouldBlock {
			t.Fatal(err)
		}
		rcvd += n
	}
	off := 0
	for i, p := range pieces {
		if &p[0] != &blob[off] {
			t.Fatalf("piece %d (%d bytes at offset %d) is a copy, not a slice of the sent array", i, len(p), off)
		}
		off += len(p)
	}
	if d := src.Stats.SegPoolHits + src.Stats.SegPoolMisses - draws; d != 0 {
		t.Errorf("a by-reference send drew %d pooled segment buffers, want 0", d)
	}
	if c.Stats.SegsSent < uint64(len(blob)/mss) {
		t.Fatalf("%d segments for %d bytes", c.Stats.SegsSent, len(blob))
	}
}

// TestReceiverKeepsNoPooledSegBuf: a receiver never references a
// sender's pooled segment buffer past the ack, which hands the buffer
// back to the pool. Copied bytes sit unread at the receiver — some of
// them parked out of order across loss first — while every buffer the
// acks returned is scribbled over; both receive calls must still read
// what was sent.
func TestReceiverKeepsNoPooledSegBuf(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 9101)
	src := tn.stacks[0]
	data := pattern(40000, 6) // under one window: the receiver need not read
	tn.sw.SetDropRate(tn.nics[1], 0.1)
	if _, err := c.Send(data); err != nil {
		t.Fatal(err)
	}
	tn.run(5 * sim.Millisecond)
	tn.sw.SetDropRate(tn.nics[1], 0)
	tn.run(5 * sim.Second)
	if c.segs.Len() != 0 || c.pending.Len() != 0 {
		t.Fatalf("%d segments unacked, %d bytes pending", c.segs.Len(), c.pending.Len())
	}
	if c.Stats.Retransmits == 0 {
		t.Fatal("no retransmission: the loss never parked a segment out of order")
	}
	if len(src.segPool) == 0 {
		t.Fatal("no buffer came back to the pool")
	}
	for _, b := range src.segPool {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xEE
		}
	}
	head := make([]byte, 1000)
	if n, err := s.Recv(head, false); err != nil || n != len(head) {
		t.Fatalf("Recv = %d, %v", n, err)
	}
	if _, _, n, err := s.RecvRef(nil, nil, len(data)); err != nil || n != 0 {
		t.Fatalf("RecvRef of copied bytes into no buffer = %d, %v; want 0, nil: it has nowhere to copy them", n, err)
	}
	mid, buf, n, err := s.RecvRef(nil, make([]byte, 0, 4096), len(data))
	if err != nil || n != 4096 || len(mid) != 1 || &mid[0][0] != &buf[0] {
		t.Fatalf("RecvRef into a 4 KiB buffer = %d bytes in %d pieces, %v; want them copied into the buffer", n, len(mid), err)
	}
	got := append(head, mid[0]...)
	tail := make([]byte, len(data)-len(got))
	if n, err := s.Recv(tail, false); err != nil || n != len(tail) {
		t.Fatalf("Recv = %d, %v", n, err)
	}
	bytesEqual(t, append(got, tail...), data, "bytes read after the pool was scribbled over")
}

// TestPropertyCheckpointWithReferencedBytes is the by-reference twin of
// TestPropertyCheckpointAnytimePreservesStream: the same random traffic,
// lossy link and checkpoints run once with Send and once with SendRef.
// The by-reference run's captures find referenced bytes in the pending
// queue, the in-flight segments, the out-of-order queue and the receive
// queue, and every saved image — pending bytes, segments and their
// boundaries, receive data — must equal the copying run's, and the
// restored stream must arrive whole.
//
// A second pair of runs sends each chunk as parts of 0–3 MSS, each in
// an array of its own, as SendParts hands a frame's parts over, so
// segments span several runs; they also stall the reader until the
// window closes and the persist timer probes it. There a segment's
// pooled buffer holds only the bytes that were copied in, and a run of
// referenced bytes alone draws no pooled buffer at all.
func TestPropertyCheckpointWithReferencedBytes(t *testing.T) {
	type census struct{ pending, segs, ooo, rcv, spanning, maxRuns, probes int }
	run := func(seed int64, ref, parts bool) ([]*TCPSavedState, census) {
		tn := newTestNet(t, 2)
		c, s := tn.connect(0, 1, 5000)
		tn.sw.SetDropRate(tn.nics[1], 0.02)
		rng := rand.New(rand.NewSource(seed))
		var saved []*TCPSavedState
		var seen census
		var want, got []byte
		buf := make([]byte, 32768)
		drainSome := func(max int) {
			if n, err := s.Recv(buf[:max], false); err == nil {
				got = append(got, buf[:n]...)
			}
		}
		send := func(chunk []byte) (int, error) {
			if ref {
				return c.SendRef(chunk)
			}
			return c.Send(chunk)
		}
		sendAll := func(chunk []byte) {
			for rem := chunk; len(rem) > 0; {
				n, err := send(rem)
				if err == ErrWouldBlock {
					tn.run(5 * sim.Millisecond)
					drainSome(20000)
					continue
				}
				if err != nil {
					t.Fatalf("send: %v", err)
				}
				rem = rem[n:]
			}
		}
		sendChunk := func(chunk []byte) {
			want = append(want, chunk...)
			if !parts {
				sendAll(chunk)
				return
			}
			for len(chunk) > 0 {
				k := min(len(chunk), rng.Intn(3*mss+1))
				sendAll(append([]byte(nil), chunk[:k]...))
				chunk = chunk[k:]
			}
		}
		for round := 0; round < 5; round++ {
			for i := 0; i < 30; i++ {
				sendChunk(pattern(rng.Intn(9000)+1, byte(rng.Intn(256))))
				tn.run(sim.Duration(rng.Intn(int(2 * sim.Millisecond))))
				if rng.Intn(3) > 0 {
					drainSome(rng.Intn(8000) + 1)
				}
			}
			if parts && round == 2 {
				// The reader stalls until the window closes, then past
				// several RTOs: only the persist timer's probes go out.
				for i := 0; s.rcvWindow() > 0 && i < 400; i++ {
					chunk := pattern(2000, byte(i))
					if n, err := send(chunk); err == nil {
						want = append(want, chunk[:n]...)
					}
					tn.run(5 * sim.Millisecond)
				}
				tn.run(50 * sim.Millisecond)
				sent := c.Stats.SegsSent
				tn.run(3 * sim.Second)
				if s.rcvWindow() == 0 && c.pending.Len() > 0 {
					seen.probes += int(c.Stats.SegsSent - sent)
				}
			}
			thaw := freeze(tn, 0, 1)
			for i := rng.Intn(4); i > 0; i-- {
				chunk := pattern(rng.Intn(5000)+1, byte(rng.Intn(256)))
				if n, err := send(chunk); err == nil {
					want = append(want, chunk[:n]...)
				}
			}
			tn.run(sim.Duration(rng.Intn(int(3 * sim.Millisecond))))
			if draws := tn.stacks[0].Stats.SegPoolHits + tn.stacks[0].Stats.SegPoolMisses; ref && round == 0 && draws != 0 {
				t.Fatalf("seed %d: referenced bytes alone drew %d pooled segment buffers", seed, draws)
			}
			seen.pending += refRuns(&c.pending)
			seen.rcv += refRuns(&s.rcvQueue)
			for i := 0; i < c.segs.Len(); i++ {
				g := c.segs.At(i)
				copied, referenced, runs := 0, false, 0
				g.each(func(r span) {
					if r.ref {
						referenced = referenced || len(r.b) > 0
					} else {
						copied += len(r.b)
					}
					runs++
				})
				if len(g.pool) != copied {
					t.Fatalf("seed %d: a segment's pooled buffer holds %d bytes for %d copied ones", seed, len(g.pool), copied)
				}
				if referenced {
					seen.segs++
				}
				if runs > 1 {
					seen.spanning++
					seen.maxRuns = max(seen.maxRuns, runs)
				}
			}
			for _, o := range s.ooo {
				if o.ref || o.next.b != nil {
					seen.ooo++
				}
			}
			stC, err := c.CaptureState()
			if err != nil {
				t.Fatalf("capture client: %v", err)
			}
			stS, err := s.CaptureState()
			if err != nil {
				t.Fatalf("capture server: %v", err)
			}
			saved = append(saved, stC, stS)
			c.Destroy()
			s.Destroy()
			if c, err = tn.stacks[0].RestoreTCP(stC); err != nil {
				t.Fatalf("restore client: %v", err)
			}
			if s, err = tn.stacks[1].RestoreTCP(stS); err != nil {
				t.Fatalf("restore server: %v", err)
			}
			thaw()
			tn.run(sim.Duration(rng.Intn(int(10 * sim.Millisecond))))
		}
		tn.sw.SetDropRate(tn.nics[1], 0)
		for stalls := 0; len(got) < len(want); stalls++ {
			if stalls > 5000 {
				t.Fatalf("stalled: read %d of %d", len(got), len(want))
			}
			tn.run(20 * sim.Millisecond)
			drainSome(len(buf))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d ref %v parts %v: stream corrupted across the checkpoints (%d bytes, want %d)", seed, ref, parts, len(got), len(want))
		}
		return saved, seen
	}
	for _, parts := range []bool{false, true} {
		var total census
		for seed := int64(1); seed <= 6; seed++ {
			copied, _ := run(seed, false, parts)
			referenced, seen := run(seed, true, parts)
			if !reflect.DeepEqual(copied, referenced) {
				t.Fatalf("seed %d parts %v: the by-reference run saved different connection images than the copying one", seed, parts)
			}
			total.pending += seen.pending
			total.segs += seen.segs
			total.ooo += seen.ooo
			total.rcv += seen.rcv
			total.spanning += seen.spanning
			total.maxRuns = max(total.maxRuns, seen.maxRuns)
			total.probes += seen.probes
		}
		t.Logf("parts %v: referenced bytes at capture: %d pending runs, %d segments, %d out-of-order segments, %d receive runs; %d segments spanning up to %d runs; %d persist probes",
			parts, total.pending, total.segs, total.ooo, total.rcv, total.spanning, total.maxRuns, total.probes)
		if total.pending == 0 || total.segs == 0 || total.ooo == 0 || total.rcv == 0 {
			t.Fatalf("parts %v: a capture never found referenced bytes somewhere: %+v", parts, total)
		}
		if parts && (total.spanning == 0 || total.maxRuns < 3 || total.probes == 0) {
			t.Fatalf("parts: no capture found segments spanning three runs, or the window never closed on a probe: %+v", total)
		}
	}
}

// refRuns counts a queue's referenced runs.
func refRuns(q *byteQueue) int {
	n := 0
	for i := 0; i < q.runs.Len(); i++ {
		if q.runs.At(i).ref != nil {
			n++
		}
	}
	return n
}

// TestTeardownPinsNoArray: a connection that dies with referenced bytes
// in its queues lets go of the arrays they alias. Its in-flight and
// out-of-order segments go; what it still holds to send or to read is
// copied, so the counts, and the bytes the application may still read,
// are unchanged.
func TestTeardownPinsNoArray(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 9102)
	blob := pattern(256<<10, 8)
	tn.sw.SetDropRate(tn.nics[1], 0.05)
	sent := 0
	for i := 0; i < 20 && sent < len(blob); i++ {
		n, err := c.SendRef(blob[sent:])
		if err != nil && err != ErrWouldBlock {
			t.Fatal(err)
		}
		sent += n
		tn.run(sim.Millisecond)
	}
	if refRuns(&c.pending) == 0 || c.segs.Len() == 0 || refRuns(&s.rcvQueue) == 0 || len(s.ooo) == 0 {
		t.Fatalf("nothing to let go of: %d pending runs, %d segments, %d receive runs, %d out of order",
			refRuns(&c.pending), c.segs.Len(), refRuns(&s.rcvQueue), len(s.ooo))
	}
	sentBefore, _ := c.StreamProgress()
	readable := s.ReadableBytes()
	c.Destroy()
	s.Destroy()
	if c.segs.Len() != 0 || refRuns(&c.pending) != 0 || refRuns(&s.rcvQueue) != 0 || s.ooo != nil {
		t.Fatalf("a dead connection still references arrays: %d segments, %d pending runs, %d receive runs, %d out of order",
			c.segs.Len(), refRuns(&c.pending), refRuns(&s.rcvQueue), len(s.ooo))
	}
	if sentAfter, _ := c.StreamProgress(); sentAfter != sentBefore {
		t.Fatalf("StreamProgress sent %d after teardown, %d before", sentAfter, sentBefore)
	}
	got := make([]byte, readable)
	if n, err := s.Recv(got, false); err != nil || n != readable {
		t.Fatalf("Recv after teardown = %d, %v; want the %d readable bytes", n, err, readable)
	}
	bytesEqual(t, got, blob[:readable], "bytes read after teardown")
}
