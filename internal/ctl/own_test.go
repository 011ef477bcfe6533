package ctl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"cruz/internal/sim"
	"cruz/internal/trace"
)

// TestReceivedFrameBelongsToReceiver: a payload handed to OnFrame is the
// receiver's to keep. Retained without copying, it must stay intact
// while any amount of later traffic crosses the connection.
func TestReceivedFrameBelongsToReceiver(t *testing.T) {
	r := newRig(t)
	var kept [][]byte
	NewConn(r.b, func(_ *Conn, payload []byte) { kept = append(kept, payload) }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)

	var want [][]byte
	for i := 0; i < 40; i++ {
		m := bytes.Repeat([]byte{byte(i + 1)}, 1+i*997%20000)
		want = append(want, m)
		if err := ca.Send(m); err != nil {
			t.Fatal(err)
		}
		r.engine.RunFor(5 * sim.Millisecond)
	}
	r.engine.RunFor(sim.Second)
	if len(kept) != len(want) {
		t.Fatalf("received %d frames, want %d", len(kept), len(want))
	}
	for i := range want {
		if !bytes.Equal(kept[i], want[i]) {
			t.Fatalf("retained frame %d was overwritten by later traffic", i)
		}
	}
}

// TestSendPartsIsOneFrameOnTheWire: a frame sent as head plus parts must
// be indistinguishable, to the receiver and to TCP, from the same bytes
// sent as one contiguous payload — same payload, same segments, same
// arrival instant. The virtual clock must not be able to tell whether
// bulk was copied into a frame buffer or not.
func TestSendPartsIsOneFrameOnTheWire(t *testing.T) {
	head := bytes.Repeat([]byte{1}, 700)
	parts := [][]byte{
		bytes.Repeat([]byte{2}, 5000), nil, bytes.Repeat([]byte{3}, 4096),
		bytes.Repeat([]byte{4}, 300<<10), bytes.Repeat([]byte{5}, 17),
	}
	whole := append([]byte(nil), head...)
	for _, p := range parts {
		whole = append(whole, p...)
	}
	ctx := trace.SpanContext{Op: 3, Span: 9}

	type outcome struct {
		payloads [][]byte
		at       []sim.Time
		segs     uint64
		blocked  int
	}
	run := func(send func(*Conn) error) outcome {
		r := newRig(t)
		var out outcome
		NewConn(r.b, func(c *Conn, payload []byte) {
			if len(out.payloads) == 1 && c.FrameCtx() != ctx {
				t.Errorf("frame context %+v, want %+v", c.FrameCtx(), ctx)
			}
			out.payloads = append(out.payloads, payload)
			out.at = append(out.at, r.engine.Now())
		}, nil)
		ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
		// A small frame first, so the bulk frame starts with data in
		// flight (the Nagle case), then one after it.
		for _, err := range []error{ca.Send([]byte("before")), send(ca), ca.Send([]byte("after"))} {
			if err != nil {
				t.Fatal(err)
			}
		}
		r.engine.RunFor(2 * sim.Second)
		out.segs, out.blocked = r.a.Stats.SegsSent, ca.Blocked
		if ca.QueuedBytes() != 0 {
			t.Fatalf("%d bytes still queued", ca.QueuedBytes())
		}
		return out
	}
	contiguous := run(func(c *Conn) error { return c.SendTierCtx(whole, ctx, TierForeground) })
	gathered := run(func(c *Conn) error { return c.SendParts(head, parts, ctx, TierForeground) })

	if len(gathered.payloads) != 3 || !bytes.Equal(gathered.payloads[1], whole) {
		t.Fatalf("gathered frame did not arrive as the concatenation of its pieces (%d frames)", len(gathered.payloads))
	}
	if gathered.segs != contiguous.segs {
		t.Errorf("gathered send used %d segments, contiguous %d", gathered.segs, contiguous.segs)
	}
	for i := range contiguous.at {
		if gathered.at[i] != contiguous.at[i] {
			t.Errorf("frame %d arrived at %v gathered, %v contiguous", i, gathered.at[i], contiguous.at[i])
		}
	}
}

// TestBulkFrameAllocation guards the receive path: delivering an 8 MiB
// frame over a warmed connection allocates the frame's own buffer, once,
// at its exact size, and beyond that only the per-segment structs of the
// layers below (about a third of the payload at MSS 1460) — no staging
// buffer, no queue regrowth.
func TestBulkFrameAllocation(t *testing.T) {
	r := newRig(t)
	frames := 0
	NewConn(r.b, func(*Conn, []byte) { frames++ }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	blob := make([]byte, 8<<20)
	deliver := func() {
		if err := ca.Send(blob); err != nil {
			t.Fatal(err)
		}
		for want := frames + 1; frames < want; {
			if !r.engine.Step() {
				t.Fatal("engine ran dry before the frame arrived")
			}
		}
	}
	deliver() // warm-up: rings and pools reach their working size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deliver()
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(blob))
	t.Logf("allocated %.2fx the frame", ratio)
	if ratio > 1.5 {
		t.Errorf("delivering a %d-byte frame allocated %.2fx its size, want <= 1.5x", len(blob), ratio)
	}
}

// TestOversizeFrameHeaderAborts: a header claiming more than MaxFrame is
// an error reported once, not an allocation.
func TestOversizeFrameHeaderAborts(t *testing.T) {
	r := newRig(t)
	var errs []error
	NewConn(r.b, func(*Conn, []byte) { t.Error("frame dispatched") }, func(_ *Conn, err error) { errs = append(errs, err) })
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.a.Send(hdr[:]); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(50 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	if len(errs) != 1 || !errors.Is(errs[0], ErrFrameTooLarge) {
		t.Fatalf("error callbacks: %v, want one ErrFrameTooLarge", errs)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("allocated %d bytes on a hostile header", grew)
	}
}

// TestSendPartsPartIsNotCopied: an 8 MiB part sent with SendParts
// arrives intact, and its bytes never pass through a pooled segment
// buffer. Only the segments that carry the frame header and head draw
// one, the last of them because it straddles into the part: every other
// segment is a slice of the part itself.
func TestSendPartsPartIsNotCopied(t *testing.T) {
	r := newRig(t)
	var got [][]byte
	NewConn(r.b, func(_ *Conn, payload []byte) { got = append(got, payload) }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	head := bytes.Repeat([]byte{9}, 3000)
	part := make([]byte, 8<<20)
	for i := range part {
		part[i] = byte(i * 31)
	}
	draws := func() uint64 { return r.sa.Stats.SegPoolHits + r.sa.Stats.SegPoolMisses }
	before := draws()
	if err := ca.SendParts(head, [][]byte{part}, trace.SpanContext{}, TierForeground); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(2 * sim.Second)
	if len(got) != 1 || !bytes.Equal(got[0], append(head, part...)) {
		t.Fatalf("the frame did not arrive intact (%d frames)", len(got))
	}
	const mss = 1460
	headSegs := uint64((frameHeader + len(head) + mss - 1) / mss)
	if d := draws() - before; d > headSegs {
		t.Errorf("the frame drew %d pooled segment buffers; its header and head fill %d segments", d, headSegs)
	}
}

// TestSendPartsHeadIsCopied: SendParts copies the head, so a caller may
// overwrite it the moment the call returns — whether the frame went
// straight into TCP or queued behind a full send buffer.
func TestSendPartsHeadIsCopied(t *testing.T) {
	r := newRig(t)
	var got [][]byte
	NewConn(r.b, func(_ *Conn, payload []byte) { got = append(got, payload) }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	part := bytes.Repeat([]byte{5}, 200<<10)
	var want [][]byte
	head := make([]byte, 2500)
	for i := 0; i < 3; i++ { // the second and third queue behind the first
		for j := range head {
			head[j] = byte(i + 1)
		}
		want = append(want, append(append([]byte(nil), head...), part...))
		if err := ca.SendParts(head, [][]byte{part}, trace.SpanContext{}, TierForeground); err != nil {
			t.Fatal(err)
		}
		for j := range head {
			head[j] = 0xEE
		}
	}
	r.engine.RunFor(2 * sim.Second)
	if len(got) != len(want) {
		t.Fatalf("received %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d carries the head as overwritten after SendParts, not as sent", i)
		}
	}
}

// TestChunkFrameArrivesWhole: a frame of many page-sized parts — chunks,
// whose every boundary cuts a segment in two — arrives as sent, each
// chunk read as a slice of the sender's own, and so does the frame
// behind it.
func TestChunkFrameArrivesWhole(t *testing.T) {
	r := newRig(t)
	head := []byte("head")
	var parts [][]byte
	for i := 0; i < 300; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 4096)
		parts = append(parts, p[:4096:4096])
	}
	var got [][][]byte // each frame as read: a head's worth, then chunks
	newConn(r.b, func(_ *Conn, pr PieceReader) {
		var frame [][]byte
		for n := min(len(head), pr.Len()); n > 0; n = min(4096, pr.Len()) {
			frame = append(frame, pr.Next(n))
		}
		got = append(got, frame)
	}, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	if err := ca.SendParts(head, parts, trace.SpanContext{}, TierForeground); err != nil {
		t.Fatal(err)
	}
	if err := ca.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(2 * sim.Second)
	if len(got) != 2 || len(got[0]) != 1+len(parts) || string(got[0][0]) != "head" || string(bytes.Join(got[1], nil)) != "after" {
		t.Fatalf("the chunk frame or the one behind it did not arrive intact (%d frames)", len(got))
	}
	for i, p := range parts {
		if q := got[0][1+i]; &q[0] != &p[0] || len(q) != len(p) {
			t.Fatalf("chunk %d arrived as a copy, not as the sender's slice", i)
		}
	}
}

// TestBulkPartsFrameAllocation is TestBulkFrameAllocation for a frame
// sent as head plus an 8 MiB part, received as pieces (an endpoint's
// path): delivered over a warmed connection, it allocates next to
// nothing — the head's own buffer, but no send-ring copy, no segment
// buffers and no frame for the part, which arrives as the sender's
// slice.
func TestBulkPartsFrameAllocation(t *testing.T) {
	r := newRig(t)
	frames := 0
	newConn(r.b, func(*Conn, PieceReader) { frames++ }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	head := make([]byte, 600)
	part := make([]byte, 8<<20)
	deliver := func() {
		if err := ca.SendParts(head, [][]byte{part}, trace.SpanContext{}, TierForeground); err != nil {
			t.Fatal(err)
		}
		for want := frames + 1; frames < want; {
			if !r.engine.Step() {
				t.Fatal("engine ran dry before the frame arrived")
			}
		}
	}
	deliver() // warm-up: queues, pools and the piece list reach their working size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deliver()
	runtime.ReadMemStats(&after)
	size := len(head) + len(part)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(size)
	t.Logf("allocated %.4fx the frame", ratio)
	if ratio > 0.01 {
		t.Errorf("delivering a %d-byte frame of parts allocated %.4fx its size, want <= 0.01x", size, ratio)
	}
}

// TestDeadConnDropsFrameInProgress: when the connection dies under a
// frame, Pump lets go of the pieces it held, which alias the sender's
// part.
func TestDeadConnDropsFrameInProgress(t *testing.T) {
	r := newRig(t)
	cb := NewConn(r.b, func(*Conn, []byte) { t.Error("a frame arrived whole") }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	if err := ca.SendParts([]byte("head"), [][]byte{make([]byte, 8<<20)}, trace.SpanContext{}, TierForeground); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(5 * sim.Millisecond)
	if len(cb.pieces) == 0 {
		t.Fatal("no frame in progress to drop")
	}
	r.b.Abort()
	if cb.pieces != nil || cb.copied != nil {
		t.Fatalf("Pump holds %d pieces of a frame on a dead connection", len(cb.pieces))
	}
}

// TestWriteQueueAllocatesNothing sends bursts of small frames — control
// messages — through a warmed connection pair. The one allocation per
// frame is the receiver's buffer of its own (NewConn): queueing a frame on
// the send side, and popping it once TCP has taken it, allocate nothing.
func TestWriteQueueAllocatesNothing(t *testing.T) {
	r := newRig(t)
	frames := 0
	NewConn(r.b, func(*Conn, []byte) { frames++ }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	payload := bytes.Repeat([]byte{'c'}, 200)
	const burst = 64
	cycle := func() {
		want := frames + burst
		for i := 0; i < burst; i++ {
			if err := ca.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		for frames < want {
			if !r.engine.Step() {
				t.Fatal("engine ran dry before the burst arrived")
			}
		}
	}
	cycle() // warm-up: queues, pools and rings reach their working size
	if got := testing.AllocsPerRun(20, cycle) / burst; got > 1 {
		t.Errorf("a small frame costs %.2f allocations, want 1: the receiver's buffer", got)
	}
}

// TestKeptSliceOutlivesTheStage: a frame's copied bytes are lent to the
// frame callback in the connection's stage, which the next frame reuses.
// What the callback keeps of them through Next is its own: a tail kept
// from one frame stays byte-identical while a second frame of other bytes
// comes through the same stage. A frame whose callback only borrows —
// Peek and Piece, as a control head's decoder does — costs no buffer:
// sending and receiving one allocates nothing.
func TestKeptSliceOutlivesTheStage(t *testing.T) {
	r := newRig(t)
	const headLen = 64
	var kept [][]byte
	keep, frames := true, 0
	newConn(r.b, func(_ *Conn, pr PieceReader) {
		frames++
		if head := pr.Peek(headLen); len(pr.Piece()) < pr.Len() || head[0] != 'h' {
			t.Errorf("a copied frame arrived as more than one piece, or without its head")
		}
		if keep {
			pr.Skip(headLen)
			kept = append(kept, pr.Next(pr.Len()))
		}
	}, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	frame := func(tail byte) []byte {
		return append(bytes.Repeat([]byte{'h'}, headLen), bytes.Repeat([]byte{tail}, 3000)...)
	}
	for _, tail := range []byte{1, 2} {
		if err := ca.Send(frame(tail)); err != nil {
			t.Fatal(err)
		}
		r.engine.RunFor(5 * sim.Millisecond)
	}
	if len(kept) != 2 {
		t.Fatalf("received %d frames, want 2", len(kept))
	}
	for i, tail := range []byte{1, 2} {
		if !bytes.Equal(kept[i], frame(tail)[headLen:]) {
			t.Fatalf("the tail kept from frame %d changed as the stage took the next frame", i)
		}
	}

	keep = false
	payload := frame(3)[:200]
	cycle := func() {
		want := frames + 1
		if err := ca.Send(payload); err != nil {
			t.Fatal(err)
		}
		for frames < want {
			if !r.engine.Step() {
				t.Fatal("engine ran dry before the frame arrived")
			}
		}
	}
	cycle() // warm-up
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a head-only frame costs %.2f allocations, want 0", n)
	}
}
