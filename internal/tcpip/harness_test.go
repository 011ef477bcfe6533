package tcpip

import (
	"testing"

	"cruz/internal/ether"
	"cruz/internal/sim"
)

// testNet is a two-or-more-node network fixture: one switch, one stack
// per node, one interface per stack.
type testNet struct {
	t      *testing.T
	engine *sim.Engine
	sw     *ether.Switch
	stacks []*Stack
	nics   []*ether.NIC
	// settle, if set, runs after every run, before the test drives the
	// stacks directly again.
	settle func()
}

func addrOf(i int) Addr { return Addr{10, 0, 0, byte(i + 1)} }

func macOf(i int) ether.MAC { return ether.MAC{0x02, 0, 0, 0, 0, byte(i + 1)} }

func newTestNet(t *testing.T, n int) *testNet {
	t.Helper()
	tn := &testNet{t: t, engine: sim.NewEngine(1234)}
	tn.sw = ether.NewSwitch(tn.engine)
	for i := 0; i < n; i++ {
		nic := ether.NewNIC(tn.engine, "eth0", macOf(i))
		tn.sw.Attach(nic, ether.GigabitLink)
		st := NewStack(tn.engine, "node")
		if _, err := st.AddInterface("eth0", addrOf(i), macOf(i), nic, false); err != nil {
			t.Fatalf("AddInterface: %v", err)
		}
		tn.stacks = append(tn.stacks, st)
		tn.nics = append(tn.nics, nic)
	}
	return tn
}

// run advances virtual time by d.
func (tn *testNet) run(d sim.Duration) {
	tn.t.Helper()
	if err := tn.engine.RunFor(d); err != nil {
		tn.t.Fatalf("RunFor: %v", err)
	}
	if tn.settle != nil {
		tn.settle()
	}
}

// connect establishes a connection from stack a to a listener on stack b
// and returns both endpoints.
func (tn *testNet) connect(a, b int, port uint16) (client, server *TCPConn) {
	tn.t.Helper()
	l, err := tn.stacks[b].ListenTCP(AddrPort{Addr: addrOf(b), Port: port}, 8)
	if err != nil {
		tn.t.Fatalf("ListenTCP: %v", err)
	}
	c, err := tn.stacks[a].DialTCP(AddrPort{Addr: addrOf(a)}, AddrPort{Addr: addrOf(b), Port: port})
	if err != nil {
		tn.t.Fatalf("DialTCP: %v", err)
	}
	tn.run(50 * sim.Millisecond)
	s, err := l.Accept()
	if err != nil {
		tn.t.Fatalf("Accept after handshake window: %v", err)
	}
	if c.State() != StateEstablished || s.State() != StateEstablished {
		tn.t.Fatalf("states after handshake: client=%v server=%v", c.State(), s.State())
	}
	l.Close()
	return c, s
}

// sendAll pushes all of data through c, draining as the window allows.
func (tn *testNet) sendAll(c *TCPConn, data []byte) {
	tn.t.Helper()
	for len(data) > 0 {
		n, err := c.Send(data)
		if err == ErrWouldBlock {
			tn.run(10 * sim.Millisecond)
			continue
		}
		if err != nil {
			tn.t.Fatalf("Send: %v", err)
		}
		data = data[n:]
		tn.run(sim.Millisecond)
	}
}

// recvN reads exactly n bytes from c, advancing time as needed.
func (tn *testNet) recvN(c *TCPConn, n int) []byte {
	tn.t.Helper()
	out := make([]byte, 0, n)
	buf := make([]byte, 16384)
	deadline := 0
	for len(out) < n {
		got, err := c.Recv(buf, false)
		if err == ErrWouldBlock {
			tn.run(10 * sim.Millisecond)
			deadline++
			if deadline > 10000 {
				tn.t.Fatalf("recvN stalled at %d/%d bytes", len(out), n)
			}
			continue
		}
		if err != nil {
			tn.t.Fatalf("Recv: %v (have %d/%d)", err, len(out), n)
		}
		out = append(out, buf[:got]...)
	}
	return out
}

// pattern produces a deterministic byte pattern for payload checks.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func bytesEqual(t *testing.T, got, want []byte, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d = %#x, want %#x", what, i, got[i], want[i])
		}
	}
}
