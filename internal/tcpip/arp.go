package tcpip

import (
	"cruz/internal/ether"
	"cruz/internal/sim"
)

// ARP operation codes.
const (
	arpRequest = 1
	arpReply   = 2
)

// ARPPacket is an Address Resolution Protocol message, carried directly in
// an Ethernet frame.
type ARPPacket struct {
	Op         int
	SenderMAC  ether.MAC
	SenderIP   Addr
	TargetMAC  ether.MAC
	TargetIP   Addr
	Gratuitous bool // announcement after migration (§4.2)
}

// WireSize implements ether.Payload.
func (a *ARPPacket) WireSize() int { return 28 }

// arpTable resolves IPv4 addresses to MACs, queueing packets that miss.
type arpTable struct {
	stack   *Stack
	entries map[Addr]ether.MAC
	// waiting holds packets queued for in-flight resolutions, keyed by
	// the target address, together with the interface to send them from.
	waiting map[Addr][]pendingPacket
}

type pendingPacket struct {
	pkt   *Packet
	iface *Interface
}

func newARPTable(s *Stack) *arpTable {
	return &arpTable{
		stack:   s,
		entries: make(map[Addr]ether.MAC),
		waiting: make(map[Addr][]pendingPacket),
	}
}

// lookup returns the MAC for ip if known.
func (t *arpTable) lookup(ip Addr) (ether.MAC, bool) {
	mac, ok := t.entries[ip]
	return mac, ok
}

// learn records or updates a mapping and flushes queued packets.
func (t *arpTable) learn(ip Addr, mac ether.MAC) {
	t.entries[ip] = mac
	if queued := t.waiting[ip]; len(queued) > 0 {
		delete(t.waiting, ip)
		for _, pp := range queued {
			t.stack.transmit(pp.iface, pp.pkt, mac)
		}
	}
}

// resolve queues pkt for transmission from iface once ip resolves,
// broadcasting an ARP request if a resolution is not already in flight.
func (t *arpTable) resolve(ip Addr, pkt *Packet, iface *Interface) {
	first := len(t.waiting[ip]) == 0
	t.waiting[ip] = append(t.waiting[ip], pendingPacket{pkt: pkt, iface: iface})
	if !first {
		return
	}
	req := &ARPPacket{
		Op:        arpRequest,
		SenderMAC: iface.MAC,
		SenderIP:  iface.IP,
		TargetIP:  ip,
	}
	iface.nic.Send(ether.Frame{
		Src:     iface.MAC,
		Dst:     ether.Broadcast,
		Type:    ether.TypeARP,
		Payload: req,
	})
	// If the target never answers, drop the queued packets after a
	// timeout so they do not pin memory forever. TCP retransmission will
	// re-attempt resolution.
	t.stack.engine.Schedule(arpTimeout, func() {
		if len(t.waiting[ip]) > 0 {
			if _, ok := t.entries[ip]; !ok {
				delete(t.waiting, ip)
			}
		}
	})
}

const arpTimeout = 500 * sim.Millisecond

// handle processes a received ARP packet on iface's NIC.
func (s *Stack) handleARP(a *ARPPacket) {
	// Any ARP traffic teaches us the sender's mapping if we already have
	// (or are waiting on) one — this is what makes gratuitous ARP after
	// migration update peers (§4.2).
	_, known := s.arp.entries[a.SenderIP]
	_, wanted := s.arp.waiting[a.SenderIP]
	if known || wanted || a.Gratuitous {
		s.arp.learn(a.SenderIP, a.SenderMAC)
	}
	if a.Op != arpRequest || a.Gratuitous {
		// A gratuitous ARP is an announcement, not a question (RFC 5227):
		// never answer it. During a migration's handover window both the
		// frozen source VIF and the restored destination VIF hold the
		// address; if the stale source answered the destination's
		// announcement, its reply would re-teach the switch the dead
		// port and peers would black-hole until the source is destroyed.
		return
	}
	// Answer requests for any of our interfaces' addresses.
	iface := s.ifaceByIP(a.TargetIP)
	if iface == nil {
		return
	}
	s.arp.learn(a.SenderIP, a.SenderMAC)
	reply := &ARPPacket{
		Op:        arpReply,
		SenderMAC: iface.MAC,
		SenderIP:  iface.IP,
		TargetMAC: a.SenderMAC,
		TargetIP:  a.SenderIP,
	}
	iface.nic.Send(ether.Frame{
		Src:     iface.MAC,
		Dst:     a.SenderMAC,
		Type:    ether.TypeARP,
		Payload: reply,
	})
}

// AnnounceGratuitousARP broadcasts the interface's current IP-to-MAC
// binding. Cruz calls this after restoring a pod on a new machine so
// remote peers and the switch learn the new location (§4.2).
func (s *Stack) AnnounceGratuitousARP(iface *Interface) {
	ann := &ARPPacket{
		Op:         arpRequest,
		SenderMAC:  iface.MAC,
		SenderIP:   iface.IP,
		TargetIP:   iface.IP,
		Gratuitous: true,
	}
	iface.nic.Send(ether.Frame{
		Src:     iface.MAC,
		Dst:     ether.Broadcast,
		Type:    ether.TypeARP,
		Payload: ann,
	})
}
