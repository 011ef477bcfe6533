package ctl

import (
	"bytes"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

type rig struct {
	t      testing.TB
	engine *sim.Engine
	a, b   *tcpip.TCPConn
	sa, sb *tcpip.Stack
}

func newRig(t testing.TB) *rig {
	t.Helper()
	r := &rig{t: t, engine: sim.NewEngine(5)}
	sw := ether.NewSwitch(r.engine)
	mk := func(i int) *tcpip.Stack {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(r.engine, "eth0", mac)
		sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(r.engine, "n")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		return st
	}
	sa, sb := mk(0), mk(1)
	r.sa, r.sb = sa, sb
	l, err := sb.ListenTCP(tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, 2}, Port: 99}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.a, err = sa.DialTCP(tcpip.AddrPort{}, tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, 2}, Port: 99})
	if err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(50 * sim.Millisecond)
	r.b, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFrameRoundTrip(t *testing.T) {
	r := newRig(t)
	var got [][]byte
	NewConn(r.b, func(_ *Conn, payload []byte) {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		got = append(got, cp)
	}, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)

	msgs := [][]byte{[]byte("one"), {}, []byte("three-three-three"), bytes.Repeat([]byte{7}, 9000)}
	for _, m := range msgs {
		if err := ca.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	r.engine.RunFor(100 * sim.Millisecond)
	if len(got) != len(msgs) {
		t.Fatalf("received %d frames, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("frame %d mismatch: %d vs %d bytes", i, len(got[i]), len(msgs[i]))
		}
	}
	if ca.Sent != len(msgs) {
		t.Fatalf("Sent = %d", ca.Sent)
	}
}

func TestQueueBeforeEstablishment(t *testing.T) {
	// Frames sent on a connection still in SYN_SENT must be queued and
	// flushed after the handshake — the bug class that silently loses
	// protocol messages.
	engine := sim.NewEngine(9)
	sw := ether.NewSwitch(engine)
	mk := func(i int) *tcpip.Stack {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(engine, "eth0", mac)
		sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(engine, "n")
		st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false)
		return st
	}
	sa, sb := mk(0), mk(1)
	l, _ := sb.ListenTCP(tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, 2}, Port: 99}, 4)
	var got int
	l.SetNotify(func() {
		if tc, err := l.Accept(); err == nil {
			NewConn(tc, func(_ *Conn, p []byte) { got++ }, nil)
		}
	})
	tc, err := sa.DialTCP(tcpip.AddrPort{}, tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, 2}, Port: 99})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(tc, func(*Conn, []byte) {}, nil)
	// Send immediately — handshake has not even left the NIC yet.
	if err := c.Send([]byte("early-1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("early-2")); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(100 * sim.Millisecond)
	if got != 2 {
		t.Fatalf("delivered %d early frames, want 2", got)
	}
}

func TestBulkSendBackpressure(t *testing.T) {
	// A frame several times the TCP send buffer (64 KB) must queue and
	// drain as acknowledgments open window space — the path checkpoint
	// replication streams bulk data through. The old behavior treated a
	// full buffer as a protocol failure ("short write").
	r := newRig(t)
	var got [][]byte
	NewConn(r.b, func(_ *Conn, payload []byte) {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		got = append(got, cp)
	}, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)

	bulk := bytes.Repeat([]byte{0xAB}, 300<<10)
	msgs := [][]byte{bulk, []byte("after-1"), bytes.Repeat([]byte{0xCD}, 100<<10), []byte("after-2")}
	for _, m := range msgs {
		if err := ca.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if ca.Blocked == 0 {
		t.Fatal("bulk send never hit backpressure — test is not exercising the queue")
	}
	r.engine.RunFor(2 * sim.Second)
	if len(got) != len(msgs) {
		t.Fatalf("received %d frames, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("frame %d mismatch: %d vs %d bytes", i, len(got[i]), len(msgs[i]))
		}
	}
	if ca.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: %d bytes left", ca.QueuedBytes())
	}
}

func TestSendOnDeadConn(t *testing.T) {
	r := newRig(t)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	r.a.Abort()
	if err := ca.Send([]byte("x")); err == nil {
		t.Fatal("send on aborted conn succeeded")
	}
}

func TestErrCallbackOnPeerReset(t *testing.T) {
	r := newRig(t)
	var gotErr error
	NewConn(r.b, func(*Conn, []byte) {}, func(_ *Conn, err error) { gotErr = err })
	r.a.Abort()
	r.engine.RunFor(50 * sim.Millisecond)
	if gotErr == nil {
		t.Fatal("error callback never fired after peer reset")
	}
}

func TestSerializerOrdersAndSpacesWork(t *testing.T) {
	engine := sim.NewEngine(3)
	s := Serializer{Engine: engine}
	var at []sim.Time
	for i := 0; i < 3; i++ {
		s.Do(10*sim.Microsecond, func() { at = append(at, engine.Now()) })
	}
	engine.Run()
	if len(at) != 3 {
		t.Fatalf("ran %d items", len(at))
	}
	for i, want := range []sim.Time{10000, 20000, 30000} {
		if at[i] != want {
			t.Fatalf("item %d at %v, want %v", i, at[i], want)
		}
	}
	// Work queued later starts after the backlog drains.
	s.Do(5*sim.Microsecond, func() { at = append(at, engine.Now()) })
	engine.Run()
	if at[3] != 35000 {
		t.Fatalf("late item at %v, want 35µs", at[3])
	}
}

// TestFrameCtxRoundTrip: the trace context stamped on a frame by SendCtx
// must surface through FrameCtx on the receiver, per frame, and frames
// sent with plain Send must surface the zero context.
func TestFrameCtxRoundTrip(t *testing.T) {
	r := newRig(t)
	type rx struct {
		payload string
		ctx     trace.SpanContext
	}
	var got []rx
	NewConn(r.b, func(c *Conn, payload []byte) {
		got = append(got, rx{payload: string(payload), ctx: c.FrameCtx()})
	}, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)

	want := []rx{
		{"alpha", trace.SpanContext{Op: 7, Span: 42}},
		{"beta", trace.SpanContext{}},
		{"gamma", trace.SpanContext{Op: 1, Span: 0xdeadbeef}},
	}
	for _, m := range want {
		var err error
		if m.ctx.Zero() {
			err = ca.Send([]byte(m.payload))
		} else {
			err = ca.SendCtx([]byte(m.payload), m.ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	r.engine.RunFor(100 * sim.Millisecond)
	if len(got) != len(want) {
		t.Fatalf("received %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
