package tcpip

import (
	"errors"
	"io"
	"testing"

	"cruz/internal/sim"
)

func TestOrderlyClose(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	tn.sendAll(c, []byte("goodbye"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tn.run(50 * sim.Millisecond)

	// Server still reads the final data, then sees EOF.
	bytesEqual(t, tn.recvN(s, 7), []byte("goodbye"), "final data")
	if _, err := s.Recv(make([]byte, 8), false); err != io.EOF {
		t.Fatalf("Recv after FIN = %v, want io.EOF", err)
	}
	if s.State() != StateCloseWait {
		t.Fatalf("server state = %v, want CLOSE_WAIT", s.State())
	}
	// Server can still send in CLOSE_WAIT (half-close).
	if _, err := s.Send([]byte("late reply")); err != nil {
		t.Fatalf("Send in CLOSE_WAIT: %v", err)
	}
	tn.run(50 * sim.Millisecond)
	bytesEqual(t, tn.recvN(c, 10), []byte("late reply"), "half-close data")

	// Server closes; both sides converge.
	s.Close()
	tn.run(50 * sim.Millisecond)
	if s.State() != StateClosed {
		t.Fatalf("server state = %v, want CLOSED", s.State())
	}
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TIME_WAIT", c.State())
	}
	// TIME_WAIT expires after 2*MSL.
	tn.run(10 * sim.Second)
	if c.State() != StateClosed {
		t.Fatalf("client state after 2MSL = %v, want CLOSED", c.State())
	}
}

func TestCloseFlushesPendingData(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	// Queue more than one window of data, then close immediately: every
	// byte must still be delivered before the FIN.
	msg := pattern(200000, 5)
	var queued int
	for queued < len(msg) {
		n, err := c.Send(msg[queued:])
		if err == ErrWouldBlock {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		queued += n
	}
	c.Close()
	// Cannot send after close.
	if _, err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	got := tn.recvN(s, queued)
	bytesEqual(t, got, msg[:queued], "data flushed by close")
	tn.run(100 * sim.Millisecond)
	if _, err := s.Recv(make([]byte, 1), false); err != io.EOF {
		t.Fatalf("after flush: %v, want io.EOF", err)
	}
}

func TestSimultaneousClose(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	c.Close()
	s.Close()
	tn.run(100 * sim.Millisecond)
	// Both went through CLOSING/TIME_WAIT; after 2MSL both are gone.
	tn.run(10 * sim.Second)
	if c.State() != StateClosed || s.State() != StateClosed {
		t.Fatalf("states = %v/%v, want CLOSED/CLOSED", c.State(), s.State())
	}
	if len(tn.stacks[0].Conns()) != 0 || len(tn.stacks[1].Conns()) != 0 {
		t.Fatal("connection table not empty after close")
	}
}

func TestAbortSendsRST(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	c.Abort()
	if c.State() != StateClosed {
		t.Fatal("Abort did not close locally")
	}
	tn.run(10 * sim.Millisecond)
	if s.State() != StateClosed || !errors.Is(s.Err(), ErrReset) {
		t.Fatalf("peer state=%v err=%v, want CLOSED/ErrReset", s.State(), s.Err())
	}
	// Reads on the reset connection surface the error.
	if _, err := s.Recv(make([]byte, 1), false); !errors.Is(err, ErrReset) {
		t.Fatalf("Recv after RST = %v, want ErrReset", err)
	}
}

func TestListenerCloseAbortsQueued(t *testing.T) {
	tn := newTestNet(t, 2)
	l, err := tn.stacks[1].ListenTCP(AddrPort{Addr: addrOf(1), Port: 80}, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tn.stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: addrOf(1), Port: 80})
	tn.run(20 * sim.Millisecond)
	l.Close()
	tn.run(20 * sim.Millisecond)
	if c.State() != StateClosed {
		t.Fatalf("client state = %v after listener close", c.State())
	}
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept on closed listener = %v", err)
	}
}

func TestFlowControlZeroWindowRecovery(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	// Fill the receiver's buffer without reading.
	msg := pattern(300000, 11)
	sent := 0
	for sent < len(msg) {
		n, err := c.Send(msg[sent:])
		if err == ErrWouldBlock {
			tn.run(20 * sim.Millisecond)
			// Stop once the receive buffer is pinned full.
			if s.ReadableBytes() >= rcvBufLimit {
				break
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		tn.run(sim.Millisecond)
	}
	if s.ReadableBytes() < rcvBufLimit {
		t.Fatalf("receive buffer only %d bytes; wanted it full", s.ReadableBytes())
	}
	// Now drain the receiver; the window reopens and the rest flows.
	got := tn.recvN(s, sent)
	bytesEqual(t, got, msg[:sent], "zero-window stream")
}

func TestReceiverNeverExceedsBufferLimit(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	limit := rcvBufLimit
	msg := pattern(4*limit, 13)
	sent := 0
	for i := 0; i < 500 && sent < len(msg); i++ {
		n, err := c.Send(msg[sent:])
		if err == nil {
			sent += n
		}
		tn.run(5 * sim.Millisecond)
		if s.ReadableBytes() > limit+mss {
			t.Fatalf("receive queue %d exceeds limit %d", s.ReadableBytes(), limit)
		}
	}
}
