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

import (
	"fmt"
	"strconv"
	"strings"
)

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
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsAny reports whether a is the unspecified address.
func (a Addr) IsAny() bool { return a == AddrAny }

// IsBroadcast reports whether a is the limited broadcast address.
func (a Addr) IsBroadcast() bool { return a == AddrBroadcast }

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return Addr{}, fmt.Errorf("tcpip: invalid address %q", s)
	}
	var a Addr
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return Addr{}, fmt.Errorf("tcpip: invalid address %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for constants in tests
// and examples.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// AddrPort is an address-port pair identifying one endpoint.
type AddrPort struct {
	Addr Addr
	Port uint16
}

func (ap AddrPort) String() string {
	return fmt.Sprintf("%s:%d", ap.Addr, ap.Port)
}

// FourTuple identifies a TCP connection.
type FourTuple struct {
	Local, Remote AddrPort
}

func (ft FourTuple) String() string {
	return fmt.Sprintf("%s->%s", ft.Local, ft.Remote)
}
