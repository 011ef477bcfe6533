// Package ether simulates the layer-2 substrate of the cluster: Ethernet
// MACs, frames, NICs, and a store-and-forward learning switch with
// configurable per-link bandwidth and latency.
//
// The paper's testbed is a gigabit Ethernet cluster; coordination-overhead
// results (Fig. 5b) are in the hundreds of microseconds, so frame
// serialization and switch latency must be modeled, not hand-waved.
// Network-address migration (§4.2) additionally requires MAC learning,
// gratuitous ARP visibility and multiple unicast MACs per NIC — all
// implemented here.
package ether

import (
	"errors"
	"fmt"

	"cruz/internal/sim"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// String renders the address in the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsZero reports whether m is the zero address.
func (m MAC) IsZero() bool { return m == MAC{} }

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherTypes used by the simulation.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
)

// Payload is the body of a frame. Payloads are kept as structured Go
// values rather than marshaled bytes — the simulation charges wire time
// based on WireSize, and checkpoint code never needs raw frame bytes.
type Payload interface {
	// WireSize returns the encoded size of the payload in bytes, used
	// for bandwidth accounting.
	WireSize() int
}

// Frame is an Ethernet frame.
type Frame struct {
	Src, Dst MAC
	Type     EtherType
	Payload  Payload
	// Flooded marks a copy the switch flooded (broadcast or unknown
	// destination): its payload is shared with the other copies, so the
	// receiver does not own it (DESIGN §4.11, "Packets").
	Flooded bool
}

// Ethernet framing constants.
const (
	headerBytes   = 14
	crcBytes      = 4
	minFrameBytes = 64
	// MTU is the maximum payload (L3 packet) size per frame.
	MTU = 1500
)

// WireSize returns the frame's on-wire size in bytes including header,
// CRC, and minimum-size padding.
func (f Frame) WireSize() int {
	n := headerBytes + crcBytes
	if f.Payload != nil {
		n += f.Payload.WireSize()
	}
	if n < minFrameBytes {
		n = minFrameBytes
	}
	return n
}

// LinkConfig describes one attachment point (NIC-to-switch cable plus the
// switch's own forwarding cost for that port).
type LinkConfig struct {
	// BandwidthBPS is the link speed in bits per second.
	BandwidthBPS int64
	// Latency is the one-way propagation plus processing delay.
	Latency sim.Duration
}

// The paper's testbed links (DESIGN §5): gigabit Ethernet through a
// store-and-forward switch. A frame between two nodes crosses two links,
// NIC to switch and switch to NIC, so it pays linkLatency and its
// serialization twice.
const (
	gigabitBPS  = 1_000_000_000       // bits per second
	linkLatency = 5 * sim.Microsecond // one way, per link
)

// GigabitLink is the testbed's link.
var GigabitLink = LinkConfig{BandwidthBPS: gigabitBPS, Latency: linkLatency}

// serialization returns the time to clock size bytes onto the wire.
func (c LinkConfig) serialization(size int) sim.Duration {
	if c.BandwidthBPS <= 0 {
		return 0
	}
	return sim.Duration(int64(size) * 8 * int64(sim.Second) / c.BandwidthBPS)
}

// ErrDetached is returned when sending through a NIC with no switch port.
var ErrDetached = errors.New("ether: nic not attached to a switch")

// NIC is a simulated network interface card. A NIC can carry several
// unicast MAC addresses (the paper relies on hardware multi-MAC support
// for per-pod VIF MACs).
type NIC struct {
	engine  *sim.Engine
	name    string
	macs    map[MAC]bool
	primary MAC
	port    *port
	recv    func(Frame)

	// txFree is when the transmitter finishes the current frame;
	// back-to-back sends queue behind it, modeling serialization.
	txFree sim.Time

	// Stats are cumulative transmit/receive counters.
	Stats NICStats
}

// NICStats counts NIC activity.
type NICStats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	RxFiltered         uint64 // frames discarded by MAC filtering
	Dropped            uint64 // frames lost to link faults
}

// NewNIC returns a NIC with the given primary MAC address.
func NewNIC(engine *sim.Engine, name string, primary MAC) *NIC {
	return &NIC{
		engine:  engine,
		name:    name,
		macs:    map[MAC]bool{primary: true},
		primary: primary,
	}
}

// PrimaryMAC returns the NIC's burned-in address.
func (n *NIC) PrimaryMAC() MAC { return n.primary }

// AddMAC installs an additional unicast address (used for pod VIF MACs).
func (n *NIC) AddMAC(m MAC) { n.macs[m] = true }

// RemoveMAC removes a previously added address. The primary address cannot
// be removed.
func (n *NIC) RemoveMAC(m MAC) {
	if m != n.primary {
		delete(n.macs, m)
	}
}

// HasMAC reports whether the NIC currently accepts unicast frames to m.
func (n *NIC) HasMAC(m MAC) bool { return n.macs[m] }

// SetReceiver installs the upper-layer frame handler. Frames that pass MAC
// filtering are delivered to it.
func (n *NIC) SetReceiver(fn func(Frame)) { n.recv = fn }

// Send transmits a frame. The frame is serialized at link speed, crosses
// the link, and is forwarded by the switch; delivery to the destination
// NIC(s) happens in virtual time.
func (n *NIC) Send(f Frame) error {
	if n.port == nil {
		return ErrDetached
	}
	size := f.WireSize()
	cfg := n.port.cfg
	start := n.engine.Now()
	if n.txFree > start {
		start = n.txFree
	}
	done := start.Add(cfg.serialization(size))
	n.txFree = done
	n.Stats.TxFrames++
	n.Stats.TxBytes += uint64(size)
	n.port.toSwitch.Push(f)
	n.engine.ScheduleAt(done.Add(cfg.Latency), n.port.arriveFn)
	return nil
}

// deliver is invoked by the switch when a frame arrives at this NIC.
func (n *NIC) deliver(f Frame) {
	accept := f.Dst.IsBroadcast() || n.macs[f.Dst]
	if !accept {
		n.Stats.RxFiltered++
		return
	}
	n.Stats.RxFrames++
	n.Stats.RxBytes += uint64(f.WireSize())
	if n.recv != nil {
		n.recv(f)
	}
}

// port is one switch port with its attached NIC and output-side state.
type port struct {
	sw     *Switch
	nic    *NIC
	cfg    LinkConfig
	txFree sim.Time // when the switch-side transmitter frees up
	down   bool
	// dropRate in [0,1] models a faulty cable; used by failure-injection
	// tests.
	dropRate float64

	// toSwitch and toNIC are the frames on this port's cable, oldest
	// first: sent by the NIC and not yet at the switch, and clocked out
	// by the switch and not yet at the NIC. Each frame's arrival is one
	// engine event running arriveFn or deliverFn, bound once at Attach,
	// which takes the head of its queue. That head is the arriving frame:
	// a transmit clock (NIC.txFree, port.txFree) never runs backwards and
	// cfg is fixed, so arrivals on one wire are scheduled at
	// non-decreasing times and fire in push order (DESIGN §4.11).
	toSwitch, toNIC     sim.Queue[Frame]
	arriveFn, deliverFn func()
}

// arrive hands the oldest frame on the NIC-to-switch wire to the switch.
func (p *port) arrive() { p.sw.forward(p, p.toSwitch.Pop()) }

// deliverHead hands the oldest frame on the switch-to-NIC wire to the NIC.
func (p *port) deliverHead() { p.nic.deliver(p.toNIC.Pop()) }

// Switch is a store-and-forward learning Ethernet switch.
type Switch struct {
	engine *sim.Engine
	ports  []*port
	// table maps learned source MACs to ports.
	table map[MAC]*port
	// Stats counts forwarding decisions.
	Stats SwitchStats
}

// SwitchStats counts switch activity.
type SwitchStats struct {
	Forwarded uint64 // unicast frames sent to a learned port
	Flooded   uint64 // frames flooded (broadcast or unknown destination)
}

// NewSwitch returns an empty switch.
func NewSwitch(engine *sim.Engine) *Switch {
	return &Switch{engine: engine, table: make(map[MAC]*port)}
}

// Attach connects a NIC to a new switch port using the given link
// configuration.
func (s *Switch) Attach(n *NIC, cfg LinkConfig) {
	p := &port{sw: s, nic: n, cfg: cfg}
	p.arriveFn, p.deliverFn = p.arrive, p.deliverHead
	s.ports = append(s.ports, p)
	n.port = p
}

// SetLinkDown marks the NIC's link up or down; frames in either direction
// are silently lost while down.
func (s *Switch) SetLinkDown(n *NIC, down bool) {
	if n.port != nil {
		n.port.down = down
	}
}

// SetDropRate sets a random frame-loss probability on the NIC's link, for
// fault-injection tests. The probability applies independently per frame.
func (s *Switch) SetDropRate(n *NIC, rate float64) {
	if n.port != nil {
		n.port.dropRate = rate
	}
}

// forward handles a frame that has fully arrived at ingress port in.
func (s *Switch) forward(in *port, f Frame) {
	if in.down {
		in.nic.Stats.Dropped++
		return
	}
	if in.dropRate > 0 && s.engine.Rand().Float64() < in.dropRate {
		in.nic.Stats.Dropped++
		return
	}
	// Learn the source address.
	if !f.Src.IsBroadcast() && !f.Src.IsZero() {
		s.table[f.Src] = in
	}
	if !f.Dst.IsBroadcast() {
		if out, ok := s.table[f.Dst]; ok {
			if out != in {
				s.Stats.Forwarded++
				s.transmit(out, f)
			}
			return
		}
	}
	// Flood: broadcast or unknown unicast.
	s.Stats.Flooded++
	f.Flooded = true
	for _, out := range s.ports {
		if out != in {
			s.transmit(out, f)
		}
	}
}

// transmit clocks a frame out of a switch port toward its NIC.
func (s *Switch) transmit(out *port, f Frame) {
	if out.down {
		return
	}
	if out.dropRate > 0 && s.engine.Rand().Float64() < out.dropRate {
		return
	}
	size := f.WireSize()
	start := s.engine.Now()
	if out.txFree > start {
		start = out.txFree
	}
	done := start.Add(out.cfg.serialization(size))
	out.txFree = done
	out.toNIC.Push(f)
	s.engine.ScheduleAt(done.Add(out.cfg.Latency), out.deliverFn)
}

// ForgetMAC drops a learned table entry, forcing the next frame to that
// MAC to flood. Gratuitous ARP after migration normally re-teaches the
// switch; this hook lets tests exercise the flooding path.
func (s *Switch) ForgetMAC(m MAC) { delete(s.table, m) }

// LearnedPortOf reports which attached NIC the switch currently associates
// with MAC m, or nil if unlearned. Exposed for tests of migration
// behaviour.
func (s *Switch) LearnedPortOf(m MAC) *NIC {
	if p, ok := s.table[m]; ok {
		return p.nic
	}
	return nil
}
