package tcpip

import (
	"testing"

	"cruz/internal/ether"
	"cruz/internal/sim"
)

// packetWatch holds a test network to the Packet release contract (DESIGN
// §4.11, "Packets"): no released packet is read again, none is released
// twice, and a flooded one is never recycled. Every packet a stack
// releases is taken off its free list before the next event runs and
// poisoned, so a packet still referenced anywhere — on a wire, in a
// loopback or ARP queue — is caught by the input hook that reads it; a
// poisoned packet showing up on a free list again was released twice.
type packetWatch struct {
	tn        *testNet
	released  map[*Packet]bool
	flooded   map[*Packet]bool
	delivered map[*Packet]int
	maxOOO    int
	conns     []*TCPConn
}

// watchPackets starts watching tn. Interfaces must all be added first
// (AddInterface re-installs the NIC's receiver).
func watchPackets(tn *testNet) *packetWatch {
	w := &packetWatch{
		tn:        tn,
		released:  make(map[*Packet]bool),
		flooded:   make(map[*Packet]bool),
		delivered: make(map[*Packet]int),
	}
	for i, st := range tn.stacks {
		st.filter.AddRule(HookInput, w.read)
		tn.nics[i].SetReceiver(w.receiver(st))
	}
	tn.engine.SetStepHook(w.scan)
	tn.settle = w.scan
	return w
}

// read is the first input rule of every stack: every packet a stack
// handles passes it, from a NIC or from loopback.
func (w *packetWatch) read(p *Packet) bool {
	if w.released[p] {
		w.tn.t.Errorf("released packet read again at %v (proto %#x)", w.tn.engine.Now(), p.Proto)
	}
	return false
}

// receiver wraps st's frame handler: it records floods (a frame the
// switch marked, or a packet reaching a second NIC) and checks that the
// one receiver of a TCP packet in a unicast frame hands it back to the
// stack that built it.
func (w *packetWatch) receiver(st *Stack) func(ether.Frame) {
	return func(f ether.Frame) {
		p, ok := f.Payload.(*Packet)
		if !ok {
			st.rxFrame(f)
			return
		}
		w.delivered[p]++
		if f.Flooded || w.delivered[p] > 1 {
			w.flooded[p] = true
		}
		owner, tcp := p.owner, p.Proto == ProtoTCP
		st.rxFrame(f)
		if owner == nil || !tcp || f.Flooded {
			return
		}
		if n := len(owner.pktPool); n == 0 || owner.pktPool[n-1] != p {
			w.tn.t.Errorf("TCP packet in a unicast frame not returned to its builder at %v", w.tn.engine.Now())
		}
	}
}

// scan runs before every event and after every run (a test's own Send
// draws packets too): whatever was released since leaves the free lists
// for good, poisoned.
func (w *packetWatch) scan() {
	for _, st := range w.tn.stacks {
		for _, p := range st.pktPool {
			if w.released[p] {
				w.tn.t.Errorf("packet released twice at %v", w.tn.engine.Now())
			}
			if w.flooded[p] {
				w.tn.t.Errorf("flooded packet recycled at %v", w.tn.engine.Now())
			}
			w.released[p] = true
			p.Proto, p.TTL, p.TCP = 0xEE, 0, Segment{}
		}
		st.pktPool = st.pktPool[:0]
	}
	for _, c := range w.conns {
		w.maxOOO = max(w.maxOOO, len(c.ooo))
	}
}

// finish runs the last scan and reports how many packets were released.
func (w *packetWatch) finish() int {
	w.scan()
	w.tn.engine.SetStepHook(nil)
	w.tn.settle = nil
	return len(w.released)
}

// exchange moves n bytes each way over c/s, draining as the window allows.
func (tn *testNet) exchange(c, s *TCPConn, n int) {
	tn.t.Helper()
	up, down := pattern(n, 11), pattern(n, 23)
	var gotUp, gotDown []byte
	buf := make([]byte, 16384)
	sentUp, sentDown := 0, 0
	for steps := 0; len(gotUp) < n || len(gotDown) < n; steps++ {
		if steps > 20000 {
			tn.t.Fatalf("exchange stalled: %d/%d up, %d/%d down", len(gotUp), n, len(gotDown), n)
		}
		if k, err := c.Send(up[sentUp:]); err == nil {
			sentUp += k
		}
		if k, err := s.Send(down[sentDown:]); err == nil {
			sentDown += k
		}
		tn.run(sim.Millisecond)
		for k, err := s.Recv(buf, false); err == nil && k > 0; k, err = s.Recv(buf, false) {
			gotUp = append(gotUp, buf[:k]...)
		}
		for k, err := c.Recv(buf, false); err == nil && k > 0; k, err = c.Recv(buf, false) {
			gotDown = append(gotDown, buf[:k]...)
		}
	}
	bytesEqual(tn.t, gotUp, up, "client to server")
	bytesEqual(tn.t, gotDown, down, "server to client")
}

// mustSend hands n pattern bytes to c in one call and returns them; they
// must fit the send buffer.
func (tn *testNet) mustSend(c *TCPConn, n int) []byte {
	tn.t.Helper()
	data := pattern(n, byte(n))
	if k, err := c.Send(data); err != nil || k != n {
		tn.t.Fatalf("Send: %d of %d bytes, %v", k, n, err)
	}
	return data
}

// TestPacketOwnership drives every path a TCP packet can take — unicast,
// flood, every drop, loopback, reassembly, the no-socket RST — under
// packetWatch, and checks the stream arrives intact where one flows.
func TestPacketOwnership(t *testing.T) {
	const vifIP, port = 100, 9400
	vif := Addr{10, 0, 0, vifIP}
	vifMAC := ether.MAC{0x02, 0, 0, 0, 1, vifIP}
	cases := []struct {
		name  string
		nodes int
		// setup adds interfaces before the watch starts.
		setup func(tn *testNet)
		run   func(tn *testNet, w *packetWatch)
		// recycles: the scenario must see packets come back.
		recycles bool
	}{
		{name: "unicast", nodes: 2, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, s := tn.connect(0, 1, port)
			tn.exchange(c, s, 64<<10)
		}},
		{name: "flood unknown MAC", nodes: 3, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, s := tn.connect(0, 1, port)
			for i := 0; i < 8; i++ {
				tn.sw.ForgetMAC(macOf(1))
				tn.sw.ForgetMAC(macOf(0))
				tn.exchange(c, s, 8<<10)
			}
			if len(w.flooded) == 0 {
				tn.t.Fatal("no packet was flooded")
			}
		}},
		{name: "broadcast", nodes: 3, run: func(tn *testNet, w *packetWatch) {
			tn.stacks[0].sendTCP(addrOf(0), AddrBroadcast, Segment{SrcPort: 1, DstPort: 2, Flags: FlagRST})
			u, err := tn.stacks[0].OpenUDP(AddrPort{Port: 67})
			if err != nil {
				tn.t.Fatal(err)
			}
			u.Broadcast = true
			if err := u.SendTo(AddrPort{Addr: AddrBroadcast, Port: 68}, []byte("offer")); err != nil {
				tn.t.Fatal(err)
			}
			tn.run(10 * sim.Millisecond)
			if len(w.flooded) != 2 {
				tn.t.Fatalf("%d packets flooded, want the TCP and the UDP one", len(w.flooded))
			}
		}},
		{name: "link down", nodes: 2, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, s := tn.connect(0, 1, port)
			tn.exchange(c, s, 16<<10)
			tn.sw.SetLinkDown(tn.nics[1], true)
			up, down := tn.mustSend(c, 32<<10), tn.mustSend(s, 32<<10)
			tn.run(50 * sim.Millisecond)
			tn.sw.SetLinkDown(tn.nics[1], false)
			tn.run(3 * sim.Second)
			bytesEqual(tn.t, tn.recvN(s, len(up)), up, "across link down")
			bytesEqual(tn.t, tn.recvN(c, len(down)), down, "across link down")
		}},
		{name: "loss", nodes: 2, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, s := tn.connect(0, 1, port)
			tn.sw.SetDropRate(tn.nics[0], 0.1)
			tn.sw.SetDropRate(tn.nics[1], 0.1)
			tn.exchange(c, s, 64<<10)
			if c.Stats.Retransmits+s.Stats.Retransmits == 0 {
				tn.t.Fatal("no loss at this seed")
			}
		}},
		{name: "filters", nodes: 2, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, s := tn.connect(0, 1, port)
			out := tn.stacks[0].Filter().AddRule(HookOutput, func(p *Packet) bool { return p.Dst == addrOf(1) })
			in := tn.stacks[1].Filter().AddRule(HookInput, func(p *Packet) bool { return p.Src == addrOf(0) })
			up, down := tn.mustSend(c, 16<<10), tn.mustSend(s, 16<<10)
			tn.run(300 * sim.Millisecond)
			tn.stacks[0].Filter().RemoveRule(out)
			tn.run(300 * sim.Millisecond)
			tn.stacks[1].Filter().RemoveRule(in)
			tn.run(3 * sim.Second)
			bytesEqual(tn.t, tn.recvN(s, len(up)), up, "across the filters")
			bytesEqual(tn.t, tn.recvN(c, len(down)), down, "across the filters")
			if f := tn.stacks[0].Filter().Stats.OutputDropped + tn.stacks[1].Filter().Stats.InputDropped; f == 0 {
				tn.t.Fatal("filters dropped nothing")
			}
		}},
		{name: "arp timeout", nodes: 2, run: func(tn *testNet, w *packetWatch) {
			c, err := tn.stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: addrOf(5), Port: port})
			if err != nil {
				tn.t.Fatal(err)
			}
			tn.run(4 * sim.Second)
			if c.Established() {
				tn.t.Fatal("connected to nobody")
			}
		}},
		{name: "nic MAC filter", nodes: 2, setup: func(tn *testNet) {
			if _, err := tn.stacks[1].AddInterface("vif", vif, vifMAC, tn.nics[1], true); err != nil {
				tn.t.Fatal(err)
			}
		}, run: func(tn *testNet, w *packetWatch) {
			l, err := tn.stacks[1].ListenTCP(AddrPort{Addr: vif, Port: port}, 1)
			if err != nil {
				tn.t.Fatal(err)
			}
			c, err := tn.stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: vif, Port: port})
			if err != nil {
				tn.t.Fatal(err)
			}
			tn.run(50 * sim.Millisecond)
			if _, err := l.Accept(); err != nil {
				tn.t.Fatal(err)
			}
			if err := tn.stacks[1].RemoveInterface(tn.stacks[1].InterfaceByName("vif")); err != nil {
				tn.t.Fatal(err)
			}
			tn.mustSend(c, 8<<10)
			tn.run(500 * sim.Millisecond)
			if tn.nics[1].Stats.RxFiltered == 0 {
				tn.t.Fatal("no frame met the NIC's MAC filter")
			}
		}},
		{name: "loopback", nodes: 1, recycles: true, setup: func(tn *testNet) {
			if _, err := tn.stacks[0].AddInterface("vif", vif, vifMAC, tn.nics[0], true); err != nil {
				tn.t.Fatal(err)
			}
		}, run: func(tn *testNet, w *packetWatch) {
			l, err := tn.stacks[0].ListenTCP(AddrPort{Addr: vif, Port: port}, 1)
			if err != nil {
				tn.t.Fatal(err)
			}
			c, err := tn.stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: vif, Port: port})
			if err != nil {
				tn.t.Fatal(err)
			}
			tn.run(50 * sim.Millisecond)
			s, err := l.Accept()
			if err != nil {
				tn.t.Fatal(err)
			}
			tn.exchange(c, s, 64<<10)
			if n := tn.nics[0].Stats.TxFrames; n != 0 {
				tn.t.Fatalf("%d frames left the node: the stream did not loop back", n)
			}
		}},
		{name: "out of order", nodes: 2, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, s := tn.connect(0, 1, port)
			w.conns = append(w.conns, s)
			// Drop the tenth data segment once: the ones behind it park.
			data := 0
			tn.stacks[1].Filter().AddRule(HookInput, func(p *Packet) bool {
				if len(p.TCP.Data) > 0 {
					data++
				}
				return len(p.TCP.Data) > 0 && data == 10
			})
			tn.exchange(c, s, 128<<10)
			if w.maxOOO == 0 {
				tn.t.Fatal("no segment was parked out of order")
			}
		}},
		{name: "no-socket RST", nodes: 2, recycles: true, run: func(tn *testNet, w *packetWatch) {
			c, err := tn.stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: addrOf(1), Port: port + 1})
			if err != nil {
				tn.t.Fatal(err)
			}
			tn.run(50 * sim.Millisecond)
			if c.Err() != ErrReset || tn.stacks[1].Stats.NoSocketRSTs == 0 {
				tn.t.Fatalf("dial to a closed port: err %v, %d RSTs", c.Err(), tn.stacks[1].Stats.NoSocketRSTs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, tc.nodes)
			if tc.setup != nil {
				tc.setup(tn)
			}
			w := watchPackets(tn)
			tc.run(tn, w)
			released := w.finish()
			if tc.recycles && released == 0 {
				t.Fatal("no packet was released: the contract was never exercised")
			}
			t.Logf("%d packets released, %d flooded", released, len(w.flooded))
		})
	}
}
