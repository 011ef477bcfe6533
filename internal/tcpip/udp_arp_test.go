package tcpip

import (
	"errors"
	"testing"

	"cruz/internal/sim"
)

func TestUDPRoundTrip(t *testing.T) {
	tn := newTestNet(t, 2)
	a, err := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tn.stacks[1].OpenUDP(AddrPort{Addr: addrOf(1), Port: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo(b.LocalAddr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	tn.run(sim.Millisecond)
	m, err := b.RecvFrom()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "ping" || m.From != a.LocalAddr() {
		t.Fatalf("got %q from %v", m.Data, m.From)
	}
	// Reply using the source endpoint from the message.
	if err := b.SendTo(m.From, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	tn.run(sim.Millisecond)
	m2, err := a.RecvFrom()
	if err != nil || string(m2.Data) != "pong" {
		t.Fatalf("reply = %q/%v", m2.Data, err)
	}
}

func TestUDPBroadcastRequiresOptIn(t *testing.T) {
	tn := newTestNet(t, 3)
	a, _ := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 68})
	if err := a.SendTo(AddrPort{Addr: AddrBroadcast, Port: 67}, []byte("x")); err == nil {
		t.Fatal("broadcast without SO_BROADCAST succeeded")
	}
	a.Broadcast = true
	var servers []*UDPConn
	for i := 1; i < 3; i++ {
		u, err := tn.stacks[i].OpenUDP(AddrPort{Addr: addrOf(i), Port: 67})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, u)
	}
	if err := a.SendTo(AddrPort{Addr: AddrBroadcast, Port: 67}, []byte("discover")); err != nil {
		t.Fatal(err)
	}
	tn.run(sim.Millisecond)
	for i, u := range servers {
		m, err := u.RecvFrom()
		if err != nil || string(m.Data) != "discover" {
			t.Fatalf("server %d: %q/%v", i, m.Data, err)
		}
	}
}

func TestUDPWildcardBind(t *testing.T) {
	tn := newTestNet(t, 2)
	u, err := tn.stacks[1].OpenUDP(AddrPort{Port: 53}) // any address
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 0})
	a.SendTo(AddrPort{Addr: addrOf(1), Port: 53}, []byte("q"))
	tn.run(sim.Millisecond)
	if _, err := u.RecvFrom(); err != nil {
		t.Fatalf("wildcard-bound socket missed datagram: %v", err)
	}
}

func TestUDPQueueLimitTailDrop(t *testing.T) {
	tn := newTestNet(t, 2)
	a, _ := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 1})
	b, _ := tn.stacks[1].OpenUDP(AddrPort{Addr: addrOf(1), Port: 2})
	for i := 0; i < defaultUDPQueueLimit+10; i++ {
		a.SendTo(b.LocalAddr(), []byte{byte(i)})
	}
	tn.run(10 * sim.Millisecond)
	if b.Pending() != defaultUDPQueueLimit {
		t.Fatalf("queued = %d, want %d", b.Pending(), defaultUDPQueueLimit)
	}
}

func TestUDPCloseReleasesPort(t *testing.T) {
	tn := newTestNet(t, 1)
	u, err := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 99}); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("rebind while open = %v", err)
	}
	u.Close()
	if _, err := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 99}); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	if err := u.SendTo(AddrPort{Addr: addrOf(0), Port: 1}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed = %v", err)
	}
}

func TestARPResolutionQueuesAndFlushes(t *testing.T) {
	tn := newTestNet(t, 2)
	a, _ := tn.stacks[0].OpenUDP(AddrPort{Addr: addrOf(0), Port: 1})
	b, _ := tn.stacks[1].OpenUDP(AddrPort{Addr: addrOf(1), Port: 2})
	// Three quick sends before resolution completes: one ARP request,
	// all three datagrams delivered after the reply.
	for i := 0; i < 3; i++ {
		a.SendTo(b.LocalAddr(), []byte{byte(i)})
	}
	tn.run(10 * sim.Millisecond)
	if b.Pending() != 3 {
		t.Fatalf("delivered %d datagrams, want 3", b.Pending())
	}
}

func TestFilterDropsBothDirections(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	f := tn.stacks[0].Filter()
	id := f.AddDropAddr(addrOf(0))
	if f.RuleCount() != 1 {
		t.Fatal("rule not installed")
	}
	c.Send([]byte("out")) // output hook drops
	s.Send([]byte("in"))  // arrives at node0, input hook drops
	tn.run(50 * sim.Millisecond)
	if s.ReadableBytes() != 0 || c.ReadableBytes() != 0 {
		t.Fatal("filtered traffic leaked")
	}
	if f.Stats.OutputDropped == 0 || f.Stats.InputDropped == 0 {
		t.Fatalf("filter stats: %+v", f.Stats)
	}
	f.RemoveRule(id)
	if f.RuleCount() != 0 {
		t.Fatal("rule not removed")
	}
	// Traffic recovers after the rule is removed (retransmission).
	got := tn.recvN(s, 3)
	bytesEqual(t, got, []byte("out"), "recovered outbound")
	got = tn.recvN(c, 2)
	bytesEqual(t, got, []byte("in"), "recovered inbound")
}

func TestFilterDoesNotAffectOtherAddresses(t *testing.T) {
	tn := newTestNet(t, 3)
	// Drop node2's address on node0's stack; node0<->node1 unaffected.
	tn.stacks[0].Filter().AddDropAddr(addrOf(2))
	c, s := tn.connect(0, 1, 5000)
	msg := []byte("unimpeded")
	tn.sendAll(c, msg)
	bytesEqual(t, tn.recvN(s, len(msg)), msg, "unfiltered flow")
}

func TestRemoveUnknownRuleIsNoOp(t *testing.T) {
	var f Filter
	f.RemoveRule(42)
	if f.RuleCount() != 0 {
		t.Fatal("phantom rule")
	}
}

// TestAddrText pins the text of an address, an endpoint and a four-tuple
// at the extremes of each field: the tracer, the replication keys and the
// error messages all print them.
func TestAddrText(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{AddrAny.String(), "0.0.0.0"},
		{AddrBroadcast.String(), "255.255.255.255"},
		{Addr{10, 0, 255, 7}.String(), "10.0.255.7"},
		{AddrPort{}.String(), "0.0.0.0:0"},
		{AddrPort{AddrBroadcast, 65535}.String(), "255.255.255.255:65535"},
		{AddrPort{Addr{10, 0, 0, 1}, 7000}.String(), "10.0.0.1:7000"},
		{FourTuple{}.String(), "0.0.0.0:0->0.0.0.0:0"},
		{FourTuple{AddrPort{AddrBroadcast, 65535}, AddrPort{AddrBroadcast, 65535}}.String(),
			"255.255.255.255:65535->255.255.255.255:65535"},
		{FourTuple{AddrPort{Addr{10, 0, 0, 2}, 49152}, AddrPort{Addr{10, 0, 0, 1}, 0}}.String(),
			"10.0.0.2:49152->10.0.0.1:0"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestSeqArithmetic(t *testing.T) {
	// Wraparound behaviour near 2^32.
	near := uint32(0xFFFFFFF0)
	wrapped := near + 32 // wraps to 16
	if !seqLT(near, wrapped) {
		t.Error("seqLT across wrap")
	}
	if !seqGT(wrapped, near) {
		t.Error("seqGT across wrap")
	}
	if !seqLE(near, near) {
		t.Error("seqLE equality")
	}
}
