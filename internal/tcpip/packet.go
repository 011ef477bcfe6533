package tcpip

// IP protocol numbers used by the simulation.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

const ipHeaderBytes = 20

// Packet is an IPv4 packet. It is carried as the payload of an Ethernet
// frame.
type Packet struct {
	Src, Dst Addr
	Proto    uint8
	TTL      uint8
	// TCP is the transport payload when Proto is ProtoTCP. It is held
	// inline, so a segment and its packet are one allocation.
	TCP Segment
	// UDP is the transport payload when Proto is ProtoUDP.
	UDP *Datagram

	// owner is the stack that built the packet from its free list; the
	// stack that receives it in a unicast frame or over loopback gives it
	// back there (release). Nil for packets nobody recycles (UDP).
	owner *Stack
}

// release returns a delivered packet to its builder's free list (DESIGN
// §4.11, "Packets"). Only the packet's one receiver may call it, once
// rxPacket has returned: nothing below keeps the packet, and a segment
// parked out of order keeps its Data slice, not the packet.
func (p *Packet) release() {
	s := p.owner
	if s == nil {
		return
	}
	*p = Packet{}
	s.pktPool = append(s.pktPool, p)
}

// WireSize implements ether.Payload.
func (p *Packet) WireSize() int {
	switch {
	case p.Proto == ProtoTCP:
		return ipHeaderBytes + p.TCP.WireSize()
	case p.Proto == ProtoUDP && p.UDP != nil:
		return ipHeaderBytes + p.UDP.WireSize()
	}
	return ipHeaderBytes
}

// TCP segment flags.
type Flags uint8

// Flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

func (f Flags) Has(bit Flags) bool { return f&bit != 0 }

const tcpHeaderBytes = 20

// Segment is a TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            Flags
	Window           uint16
	payload
}

// payload is a segment's bytes. Data is all of them, unless the
// segment spans several runs of its sender's queue: Data is then the
// first run, next the second and more the rest, each marked like ref.
// Everything but Data exists only in the simulator: a real segment
// carries its bytes as one payload, and WireSize counts the runs' bytes
// and ignores the marks.
type payload struct {
	Data []byte
	// ref marks Data as bytes nobody writes again, so the receiver may
	// queue them by reference instead of copying.
	ref  bool
	next span
	more []span // from a slab of the sender's stack (spanSlots)
}

// span is one run of a segment that spans several: a slice of bytes
// nobody writes again (ref), or copied bytes in the sender's pooled
// segment buffer, which the ack hands back to its pool.
type span struct {
	b   []byte
	ref bool
}

// len returns the number of payload bytes.
func (p *payload) len() int {
	n := len(p.Data) + len(p.next.b)
	for _, r := range p.more {
		n += len(r.b)
	}
	return n
}

// each calls fn on every run of the payload, in order: Data alone, or
// each run of a segment that spans several.
func (p *payload) each(fn func(span)) {
	fn(span{b: p.Data, ref: p.ref})
	if p.next.b != nil {
		fn(p.next)
	}
	for _, r := range p.more {
		fn(r)
	}
}

// WireSize returns the segment's encoded size.
func (s *Segment) WireSize() int { return tcpHeaderBytes + s.len() }

// seqLen returns the sequence-space length of the segment (data plus one
// for each of SYN and FIN).
func (s *Segment) seqLen() uint32 {
	n := uint32(s.len())
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

const udpHeaderBytes = 8

// Datagram is a UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Data             []byte
}

// WireSize returns the datagram's encoded size.
func (d *Datagram) WireSize() int { return udpHeaderBytes + len(d.Data) }

// Sequence-number arithmetic (mod 2^32), following RFC 793 conventions.

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// seqGT reports a > b in sequence space.
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }
