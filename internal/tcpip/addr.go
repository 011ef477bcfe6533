// Package tcpip implements the simulated network stack: IPv4, ARP,
// interfaces (including per-pod virtual interfaces), a netfilter-style
// packet filter, UDP, and a from-scratch TCP with real sequence-number,
// retransmission, and backoff semantics.
//
// Cruz's core capability — saving and restoring live TCP connection state
// (paper §4.1) — is exposed through TCPConn.CaptureState and
// Stack.RestoreTCP. The stack deliberately implements the small set of
// mechanisms the paper's correctness argument (§5.1) depends on: the
// invariant unack_nxt <= rcv_nxt < snd_nxt, send buffers with packet
// boundaries, cumulative ACKs, and timer-driven retransmission with
// exponential backoff.
package tcpip

import "strconv"

// Addr is an IPv4 address.
type Addr [4]byte

// Well-known addresses.
var (
	// AddrAny is the unspecified address (INADDR_ANY).
	AddrAny = Addr{}
	// AddrBroadcast is the limited broadcast address.
	AddrBroadcast = Addr{255, 255, 255, 255}
)

// String renders the address in dotted-quad form.
func (a Addr) String() string { return string(a.appendTo(make([]byte, 0, 15))) }

func (a Addr) appendTo(b []byte) []byte {
	for i, octet := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return b
}

// IsAny reports whether a is the unspecified address.
func (a Addr) IsAny() bool { return a == AddrAny }

// IsBroadcast reports whether a is the limited broadcast address.
func (a Addr) IsBroadcast() bool { return a == AddrBroadcast }

// AddrPort is an address-port pair identifying one endpoint.
type AddrPort struct {
	Addr Addr
	Port uint16
}

// String renders the endpoint as address:port.
func (ap AddrPort) String() string { return string(ap.appendTo(make([]byte, 0, 21))) }

func (ap AddrPort) appendTo(b []byte) []byte {
	b = append(ap.Addr.appendTo(b), ':')
	return strconv.AppendUint(b, uint64(ap.Port), 10)
}

// FourTuple identifies a TCP connection.
type FourTuple struct {
	Local, Remote AddrPort
}

// String renders the connection as local->remote.
func (ft FourTuple) String() string {
	b := append(ft.Local.appendTo(make([]byte, 0, 44)), "->"...)
	return string(ft.Remote.appendTo(b))
}
