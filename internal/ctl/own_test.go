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
