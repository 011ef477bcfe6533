package tcpip

import (
	"errors"
	"fmt"

	"cruz/internal/ether"
	"cruz/internal/sim"
	"cruz/internal/trace"
)

// Errors returned by stack operations.
var (
	ErrWouldBlock   = errors.New("tcpip: operation would block")
	ErrAddrInUse    = errors.New("tcpip: address already in use")
	ErrNoRoute      = errors.New("tcpip: no interface for address")
	ErrClosed       = errors.New("tcpip: socket closed")
	ErrReset        = errors.New("tcpip: connection reset by peer")
	ErrNotConnected = errors.New("tcpip: not connected")
	ErrTimeout      = errors.New("tcpip: connection timed out")
	ErrNoPorts      = errors.New("tcpip: ephemeral ports exhausted")
	ErrConnExists   = errors.New("tcpip: connection already exists")
	ErrIfaceExists  = errors.New("tcpip: interface address already exists")
	ErrUnknownIface = errors.New("tcpip: no such interface")
)

// LoopbackLatency is the delivery delay for packets whose destination is
// an interface on the sending stack (pod-to-pod traffic on one node).
const LoopbackLatency = 10 * sim.Microsecond

// Interface is a network interface: an IP address bound to a MAC, sending
// and receiving through a NIC. A physical interface and any number of
// virtual interfaces (pod VIFs, §4.2) may share one NIC; VIFs with their
// own MAC rely on the NIC's multi-MAC support.
type Interface struct {
	Name string
	IP   Addr
	MAC  ether.MAC
	// Virtual marks pod VIFs, which are torn down on migration.
	Virtual bool

	stack *Stack
	nic   *ether.NIC
}

// NIC returns the hardware NIC backing this interface.
func (i *Interface) NIC() *ether.NIC { return i.nic }

// Stack is one node's network stack. All methods must be called from the
// simulation event loop (the simulation is single-threaded by design).
type Stack struct {
	engine *sim.Engine
	name   string
	tr     *trace.Tracer

	ifaces []*Interface
	arp    *arpTable
	filter *Filter

	conns     map[FourTuple]*TCPConn
	listeners map[AddrPort]*TCPListener
	udpConns  map[AddrPort]*UDPConn

	nextEphemeral uint16

	// segPool is the send-path segment-buffer free list: trySend draws
	// packetization buffers here and processACK returns them once a
	// segment is cumulatively acknowledged (never-retransmitted segments
	// only — see putSegBuf). Bulk transfers then recycle a small working
	// set of MSS-sized buffers instead of allocating one per segment.
	segPool [][]byte

	// slab holds the run slots of segments that span several runs
	// (spanSlots).
	slab []span

	// pktPool is the free list of TCP packets this stack builds (sendTCP).
	// The one stack that receives a packet in a unicast frame, or this
	// stack over loopback, hands it back here (Packet.release), so a
	// sender is refilled by its own packets however few it receives. It
	// keeps every one that comes back: it never holds more than the most
	// this stack had in flight at once.
	pktPool []*Packet

	// loopback holds the packets looped back to this stack, oldest first.
	// Each is one event running loopbackFn (rxLoopback, bound once); all
	// wait the same LoopbackLatency, so they fire in push order.
	loopback   sim.Queue[*Packet]
	loopbackFn func()

	// Stats counts stack-level events.
	Stats StackStats
}

// StackStats counts stack activity.
type StackStats struct {
	IPSent       uint64
	NoSocketRSTs uint64

	// Segment-pool traffic: buffers drawn from / returned to the free
	// list versus fresh allocations, for the engine fast-path ablation.
	SegPoolHits   uint64
	SegPoolMisses uint64
}

// Segment-pool sizing. Buffers are MSS-capacity, and the pool is bounded
// so a burst never pins more than a small working set of them.
const (
	segPoolBufCap = mss
	segPoolMax    = 64
)

// getSegBuf returns a length-n buffer (n <= mss) for packetizing send
// data, reusing a pooled buffer when there is one.
func (s *Stack) getSegBuf(n int) []byte {
	if last := len(s.segPool) - 1; last >= 0 {
		b := s.segPool[last]
		s.segPool = s.segPool[:last]
		s.Stats.SegPoolHits++
		return b[:n]
	}
	s.Stats.SegPoolMisses++
	return make([]byte, n, segPoolBufCap)
}

// putSegBuf returns a getSegBuf buffer to the free list. Callers may
// only recycle buffers of segments that were transmitted exactly once
// and are now cumulatively acknowledged: the unique frame carrying the
// buffer has been consumed (its unflagged bytes copied into the
// receiver's queue) or dropped, so no in-flight or reassembly reference
// can remain.
func (s *Stack) putSegBuf(b []byte) {
	if len(s.segPool) < segPoolMax {
		s.segPool = append(s.segPool, b[:0])
	}
}

// sendTCP builds a TCP packet, reusing one from the free list when it can,
// and hands it to IP.
func (s *Stack) sendTCP(src, dst Addr, seg Segment) {
	var p *Packet
	if last := len(s.pktPool) - 1; last >= 0 {
		p = s.pktPool[last]
		s.pktPool = s.pktPool[:last]
	} else {
		p = new(Packet)
	}
	*p = Packet{Src: src, Dst: dst, Proto: ProtoTCP, TTL: 64, TCP: seg, owner: s}
	s.sendIP(p) //cruzvet:allow errdrop a segment transmit is best-effort: a no-route failure looks like loss, which the RTO (or, for a RST, the peer's retry) recovers
}

// NewStack returns a stack with no interfaces.
func NewStack(engine *sim.Engine, name string) *Stack {
	s := &Stack{
		engine:        engine,
		name:          name,
		tr:            trace.FromEngine(engine),
		conns:         make(map[FourTuple]*TCPConn),
		listeners:     make(map[AddrPort]*TCPListener),
		udpConns:      make(map[AddrPort]*UDPConn),
		nextEphemeral: 32768,
	}
	s.arp = newARPTable(s)
	s.filter = &Filter{}
	s.loopbackFn = s.rxLoopback
	return s
}

// Name returns the stack's node name (for diagnostics).
func (s *Stack) Name() string { return s.name }

// Engine returns the simulation engine the stack runs on.
func (s *Stack) Engine() *sim.Engine { return s.engine }

// Filter returns the stack's packet filter.
func (s *Stack) Filter() *Filter { return s.filter }

// AddInterface binds ip/mac to the NIC as a new interface. If mac differs
// from the NIC's primary MAC it is added to the NIC's unicast filter. The
// first frame receiver registered on the NIC is the stack's demultiplexer.
func (s *Stack) AddInterface(name string, ip Addr, mac ether.MAC, nic *ether.NIC, virtual bool) (*Interface, error) {
	if s.ifaceByIP(ip) != nil {
		return nil, fmt.Errorf("%w: %s", ErrIfaceExists, ip)
	}
	iface := &Interface{Name: name, IP: ip, MAC: mac, Virtual: virtual, stack: s, nic: nic}
	if !nic.HasMAC(mac) {
		nic.AddMAC(mac)
	}
	s.ifaces = append(s.ifaces, iface)
	nic.SetReceiver(s.rxFrame)
	return iface, nil
}

// RemoveInterface tears an interface down (pod migration deletes the
// source VIF). Established connections bound to its address survive in
// the connection table — they are about to be checkpointed or are already
// dead — but no further traffic flows for them here.
func (s *Stack) RemoveInterface(iface *Interface) error {
	for i, f := range s.ifaces {
		if f == iface {
			s.ifaces = append(s.ifaces[:i], s.ifaces[i+1:]...)
			if iface.MAC != iface.nic.PrimaryMAC() {
				iface.nic.RemoveMAC(iface.MAC)
			}
			return nil
		}
	}
	return ErrUnknownIface
}

// Interfaces returns the stack's interfaces.
func (s *Stack) Interfaces() []*Interface {
	out := make([]*Interface, len(s.ifaces))
	copy(out, s.ifaces)
	return out
}

// InterfaceByName returns the named interface, or nil.
func (s *Stack) InterfaceByName(name string) *Interface {
	for _, f := range s.ifaces {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func (s *Stack) ifaceByIP(ip Addr) *Interface {
	for _, f := range s.ifaces {
		if f.IP == ip {
			return f
		}
	}
	return nil
}

// FirstAddr returns the address of the first interface, used when sockets
// bind to the unspecified address.
func (s *Stack) FirstAddr() (Addr, bool) {
	if len(s.ifaces) == 0 {
		return Addr{}, false
	}
	return s.ifaces[0].IP, true
}

// rxFrame is the NIC receive handler: demultiplex ARP and IPv4. A packet
// in a unicast frame is this stack's alone and goes back to its builder
// once handled; a flooded one is shared with the flood's other receivers.
func (s *Stack) rxFrame(f ether.Frame) {
	switch f.Type {
	case ether.TypeARP:
		if a, ok := f.Payload.(*ARPPacket); ok {
			s.handleARP(a)
		}
	case ether.TypeIPv4:
		if p, ok := f.Payload.(*Packet); ok {
			s.rxPacket(p)
			if !f.Flooded {
				p.release()
			}
		}
	}
}

// rxPacket handles a received IP packet: filter, address check, demux.
func (s *Stack) rxPacket(p *Packet) {
	if s.filter.verdict(HookInput, p) == VerdictDrop {
		return
	}
	if !p.Dst.IsBroadcast() && s.ifaceByIP(p.Dst) == nil {
		// Not ours (a stale flood); ignore.
		return
	}
	switch p.Proto {
	case ProtoTCP:
		s.rxTCP(p)
	case ProtoUDP:
		if p.UDP != nil {
			s.rxUDP(p, p.UDP)
		}
	}
}

// sendIP routes and transmits an IP packet from the interface owning the
// source address. The output filter hook applies here, below TCP — so a
// checkpoint's drop rule silences retransmissions too, exactly like the
// paper's netfilter usage.
func (s *Stack) sendIP(p *Packet) error {
	iface := s.ifaceByIP(p.Src)
	if iface == nil {
		return fmt.Errorf("%w: src %s", ErrNoRoute, p.Src)
	}
	if s.filter.verdict(HookOutput, p) == VerdictDrop {
		return nil // silently dropped, per netfilter semantics
	}
	s.Stats.IPSent++
	if p.Dst.IsBroadcast() {
		iface.nic.Send(ether.Frame{Src: iface.MAC, Dst: ether.Broadcast, Type: ether.TypeIPv4, Payload: p})
		return nil
	}
	if s.ifaceByIP(p.Dst) != nil {
		// Local delivery: both endpoints live on this stack (e.g. two pods
		// co-located on one node after recovery re-homes one). A switch
		// never hairpins a frame back out its ingress port, so loop the
		// packet back here, below the output hook and above the input hook
		// — the same place a real kernel's loopback sits, which keeps a
		// checkpoint's comm-disable rules effective for co-located pods.
		s.loopback.Push(p)
		s.engine.Schedule(LoopbackLatency, s.loopbackFn)
		return nil
	}
	if mac, ok := s.arp.lookup(p.Dst); ok {
		s.transmit(iface, p, mac)
		return nil
	}
	s.arp.resolve(p.Dst, p, iface)
	return nil
}

// rxLoopback receives the oldest looped-back packet, its one receiver.
func (s *Stack) rxLoopback() {
	p := s.loopback.Pop()
	s.rxPacket(p)
	p.release()
}

// transmit emits a resolved packet on the wire.
func (s *Stack) transmit(iface *Interface, p *Packet, dst ether.MAC) {
	iface.nic.Send(ether.Frame{Src: iface.MAC, Dst: dst, Type: ether.TypeIPv4, Payload: p})
}

// allocEphemeralPort returns a free local port for the given address.
func (s *Stack) allocEphemeralPort(ip Addr) (uint16, error) {
	for tries := 0; tries < 28232; tries++ {
		port := s.nextEphemeral
		s.nextEphemeral++
		if s.nextEphemeral == 0 {
			s.nextEphemeral = 32768
		}
		if s.portFree(ip, port) {
			return port, nil
		}
	}
	return 0, ErrNoPorts
}

// portFree reports whether ip:port is unused by listeners, connections,
// and UDP sockets.
func (s *Stack) portFree(ip Addr, port uint16) bool {
	probe := AddrPort{Addr: ip, Port: port}
	if _, ok := s.listeners[probe]; ok {
		return false
	}
	if _, ok := s.listeners[AddrPort{Port: port}]; ok {
		return false
	}
	if ip.IsAny() {
		// A wildcard bind conflicts with any specific bind on the port.
		for ap := range s.listeners {
			if ap.Port == port {
				return false
			}
		}
		for ap := range s.udpConns {
			if ap.Port == port {
				return false
			}
		}
	}
	if _, ok := s.udpConns[probe]; ok {
		return false
	}
	for ft := range s.conns {
		if ft.Local.Port == port && (ft.Local.Addr == ip || ip.IsAny()) {
			return false
		}
	}
	return true
}
