package tcpip

import (
	"errors"
	"testing"

	"cruz/internal/sim"
)

func TestStreamProgressCountsEverything(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	msg := pattern(5000, 1)
	tn.sendAll(c, msg)
	tn.run(20 * sim.Millisecond)

	sent, _ := c.StreamProgress()
	if sent != 5000 {
		t.Fatalf("sender progress = %d, want 5000", sent)
	}
	_, rcvd := s.StreamProgress()
	if rcvd != 5000 {
		t.Fatalf("receiver progress = %d, want 5000", rcvd)
	}

	// Freeze the network; pending (unpacketized) bytes must still count
	// toward the sender's position — markers must cover them.
	thaw := freeze(tn, 0, 1)
	defer thaw()
	big := pattern(100000, 2)
	n, err := c.Send(big)
	if err != nil {
		t.Fatal(err)
	}
	sent2, _ := c.StreamProgress()
	if sent2 != 5000+uint64(n) {
		t.Fatalf("sender progress = %d, want %d", sent2, 5000+n)
	}
}

func TestStreamProgressExcludesFIN(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	tn.sendAll(c, []byte("bye"))
	c.Close()
	tn.run(50 * sim.Millisecond)
	sent, _ := c.StreamProgress()
	if sent != 3 {
		t.Fatalf("sent progress = %d, want 3 (FIN excluded)", sent)
	}
	tn.recvN(s, 3)
	_, rcvd := s.StreamProgress()
	if rcvd != 3 {
		t.Fatalf("rcvd progress = %d, want 3 (FIN excluded)", rcvd)
	}
}

func TestDrainToAltPreservesOrderAndReopensWindow(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	// Fill the receiver to (near) zero window.
	msg := pattern(200000, 3)
	sent := 0
	for i := 0; i < 200 && sent < len(msg); i++ {
		n, err := c.Send(msg[sent:])
		if err == nil {
			sent += n
		}
		tn.run(5 * sim.Millisecond)
		if s.rcvWindow() == 0 {
			break
		}
	}
	if s.rcvWindow() != 0 {
		t.Fatalf("window never closed (wnd=%d)", s.rcvWindow())
	}
	// Drain to the library buffer: window reopens, stream continues.
	moved := s.DrainToAlt()
	if moved == 0 {
		t.Fatal("nothing drained")
	}
	if s.rcvWindow() == 0 {
		t.Fatal("window still closed after drain")
	}
	// Push the rest through, draining periodically.
	for i := 0; i < 2000 && sent < len(msg); i++ {
		n, err := c.Send(msg[sent:])
		if err == nil {
			sent += n
		}
		tn.run(2 * sim.Millisecond)
		s.DrainToAlt()
	}
	if sent != len(msg) {
		t.Fatalf("only %d of %d accepted", sent, len(msg))
	}
	// Everything reads back in order through the normal Recv path.
	got := tn.recvN(s, len(msg))
	bytesEqual(t, got, msg, "drained+live stream")
}

func TestZeroWindowProbeRecovers(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	// Stuff the receiver full and keep data pending at the sender.
	total := pattern(3*rcvBufLimit, 9)
	sent := 0
	for i := 0; i < 100; i++ {
		n, err := c.Send(total[sent:])
		if err == nil {
			sent += n
		}
		tn.run(10 * sim.Millisecond)
		if s.rcvWindow() == 0 && c.inflightBytes() == 0 && c.pending.Len() > 0 {
			break
		}
	}
	if s.rcvWindow() != 0 {
		t.Skip("window never fully closed in this configuration")
	}
	// Do not read for a long stretch: probes must not kill the conn.
	tn.run(2 * sim.Second)
	if c.Err() != nil {
		t.Fatalf("sender errored during zero-window: %v", c.Err())
	}
	// Now read everything; the stream completes.
	got := tn.recvN(s, sent)
	bytesEqual(t, got, total[:sent], "post-zero-window stream")
}

func TestTimeWaitTupleBlocksReuse(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	cLocal := c.LocalAddr()
	c.Close()
	tn.run(20 * sim.Millisecond)
	s.Close()
	tn.run(20 * sim.Millisecond)
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TIME_WAIT", c.State())
	}
	// Redialing with the exact same 4-tuple collides with TIME_WAIT.
	l, err := tn.stacks[1].ListenTCP(AddrPort{Addr: addrOf(1), Port: 5000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = l
	if _, err := tn.stacks[0].DialTCP(cLocal, AddrPort{Addr: addrOf(1), Port: 5000}); !errors.Is(err, ErrConnExists) {
		t.Fatalf("redial during TIME_WAIT = %v, want ErrConnExists", err)
	}
	// After 2*MSL the tuple frees up.
	tn.run(10 * sim.Second)
	if _, err := tn.stacks[0].DialTCP(cLocal, AddrPort{Addr: addrOf(1), Port: 5000}); err != nil {
		t.Fatalf("redial after TIME_WAIT: %v", err)
	}
}

func TestCaptureFinWait1CompletesCloseAfterRestore(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	// Freeze the wire, then close: the FIN stays unacknowledged in the
	// send buffer and the connection parks in FIN_WAIT_1.
	thaw := freeze(tn, 0, 1)
	tn.sendAll(c, []byte("last words"))
	c.Close()
	tn.run(10 * sim.Millisecond)
	if c.State() != StateFinWait1 {
		t.Fatalf("state = %v, want FIN_WAIT_1", c.State())
	}
	st, err := c.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	finSegs := 0
	for _, sg := range st.SendSegments {
		if sg.FIN {
			finSegs++
		}
	}
	if finSegs != 1 {
		t.Fatalf("captured FIN segments = %d, want 1", finSegs)
	}
	c.Destroy()
	c2, err := tn.stacks[0].RestoreTCP(st)
	if err != nil {
		t.Fatal(err)
	}
	thaw()
	// The restored close completes end to end.
	bytesEqual(t, tn.recvN(s, 10), []byte("last words"), "pre-close data")
	tn.run(100 * sim.Millisecond)
	s.Close()
	tn.run(20 * sim.Second)
	if c2.State() != StateClosed || s.State() != StateClosed {
		t.Fatalf("states after restored close: %v / %v", c2.State(), s.State())
	}
}

func TestSynToTimeWaitIsIgnored(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	c.Close()
	tn.run(20 * sim.Millisecond)
	s.Close()
	tn.run(20 * sim.Millisecond)
	// Inject a stray SYN at the TIME_WAIT endpoint's tuple: it must not
	// tear down or crash anything.
	before := c.State()
	c.handleSegment(&Segment{Flags: FlagSYN, Seq: 12345})
	if c.State() != before {
		t.Fatalf("stray SYN changed state %v -> %v", before, c.State())
	}
}

func TestListenerNotifyOnAccept(t *testing.T) {
	tn := newTestNet(t, 2)
	l, _ := tn.stacks[1].ListenTCP(AddrPort{Addr: addrOf(1), Port: 80}, 8)
	notified := 0
	l.SetNotify(func() { notified++ })
	tn.stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: addrOf(1), Port: 80})
	tn.run(20 * sim.Millisecond)
	if notified == 0 {
		t.Fatal("listener notify never fired")
	}
	if !l.Acceptable() {
		t.Fatal("listener not acceptable")
	}
}

func TestConnStatsAccounting(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	msg := pattern(10000, 4)
	tn.sendAll(c, msg)
	tn.recvN(s, len(msg))
	if c.Stats.BytesSent < 10000 {
		t.Fatalf("BytesSent = %d", c.Stats.BytesSent)
	}
	if s.Stats.BytesReceived != 10000 {
		t.Fatalf("BytesReceived = %d", s.Stats.BytesReceived)
	}
	if c.Stats.SegsSent == 0 || s.Stats.SegsReceived == 0 {
		t.Fatal("segment counters empty")
	}
}
