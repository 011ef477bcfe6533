// Package dhcp implements the simplified DHCP exchange of paper §4.2: a
// server leasing addresses keyed by client MAC, and an in-pod client
// whose hardware address comes from the interposed SIOCGIFHWADDR — the
// pod's stable "fake" MAC. Because that MAC survives migration, lease
// renewal from the new machine returns the same address and active
// connections survive.
//
// Messages are gob-encoded over UDP (ports 67/68), with the DISCOVER /
// OFFER / REQUEST / ACK handshake and RENEW via directed REQUEST.
package dhcp

import (
	"bytes"
	"fmt"

	"cruz/internal/ether"
	"cruz/internal/gobmemo"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// Standard DHCP ports.
const (
	ServerPort uint16 = 67
	ClientPort uint16 = 68
)

// MsgType is the DHCP message type.
type MsgType int

// DHCP message types (the subset the paper's scenario needs).
const (
	Discover MsgType = iota + 1
	Offer
	Request
	Ack
	Nak
)

// Message is the DHCP payload. ClientMAC is carried in the payload, not
// the frame header — which is exactly why the paper must interpose
// SIOCGIFHWADDR: "the DHCP server uses a MAC address specified in the
// payload of the DHCP request to identify the client".
type Message struct {
	Type      MsgType
	ClientMAC ether.MAC
	YourIP    tcpip.Addr
	LeaseSecs int
	XID       uint32
}

// codec encodes every DHCP message: bytes identical to a fresh gob
// encoder's, type descriptors built once per process.
var codec = gobmemo.New[Message]()

// send encodes m and sends it from the socket fd to the endpoint.
func send(ctx *kernel.ProcContext, fd int, to tcpip.AddrPort, m *Message) error {
	var buf bytes.Buffer
	if err := codec.Encode(&buf, m); err != nil {
		return fmt.Errorf("dhcp: encode: %w", err)
	}
	return ctx.SendTo(fd, to, buf.Bytes())
}

// decode parses a datagram, which must hold exactly one message.
func decode(b []byte) (*Message, error) {
	m, n, err := codec.Read(b)
	if err == nil && n != len(b) {
		err = fmt.Errorf("%d bytes after the message", len(b)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("dhcp: decode: %w", err)
	}
	return m, nil
}

// Server is the DHCP daemon, run as a native (non-pod) process.
type Server struct {
	// Pool is the assignable address list.
	Pool []tcpip.Addr
	// LeaseSecs is the advertised lease duration.
	LeaseSecs int

	Phase  int
	FD     int
	Leases map[ether.MAC]tcpip.Addr
	// Grants counts ACKs issued (renewals included).
	Grants uint64
	Fault  string
}

// NewServer serves the given address pool.
func NewServer(pool []tcpip.Addr) *Server {
	return &Server{Pool: pool, LeaseSecs: 60, Leases: make(map[ether.MAC]tcpip.Addr)}
}

// leaseFor returns (allocating if needed) the client's address. The MAC
// keying is what makes leases stable across migration.
func (s *Server) leaseFor(mac ether.MAC) (tcpip.Addr, bool) {
	if ip, ok := s.Leases[mac]; ok {
		return ip, true
	}
	used := make(map[tcpip.Addr]bool, len(s.Leases))
	for _, ip := range s.Leases {
		used[ip] = true
	}
	for _, ip := range s.Pool {
		if !used[ip] {
			s.Leases[mac] = ip
			return ip, true
		}
	}
	return tcpip.Addr{}, false
}

// Step implements kernel.Program.
func (s *Server) Step(ctx *kernel.ProcContext) kernel.StepResult {
	if s.Phase == 0 {
		fd, err := ctx.OpenUDP(tcpip.AddrPort{Port: ServerPort}, true)
		if err != nil {
			s.Fault = "open: " + err.Error()
			return kernel.Exit(0, 2)
		}
		s.FD = fd
		s.Phase = 1
		return kernel.Continue(0)
	}
	msg, err := ctx.RecvFrom(s.FD)
	if err == kernel.ErrWouldBlock {
		return kernel.BlockOnRead(0, s.FD)
	}
	if err != nil {
		s.Fault = "recv: " + err.Error()
		return kernel.Exit(0, 2)
	}
	m, derr := decode(msg.Data)
	if derr != nil {
		return kernel.Continue(sim.Microsecond)
	}
	reply := &Message{ClientMAC: m.ClientMAC, XID: m.XID, LeaseSecs: s.LeaseSecs}
	switch m.Type {
	case Discover:
		ip, ok := s.leaseFor(m.ClientMAC)
		if !ok {
			return kernel.Continue(sim.Microsecond) // pool exhausted: stay silent
		}
		reply.Type = Offer
		reply.YourIP = ip
	case Request:
		ip, ok := s.leaseFor(m.ClientMAC)
		if !ok || (m.YourIP != tcpip.Addr{} && m.YourIP != ip) {
			reply.Type = Nak
		} else {
			reply.Type = Ack
			reply.YourIP = ip
			s.Grants++
		}
	default:
		return kernel.Continue(sim.Microsecond)
	}
	// Answer to the client's source endpoint.
	if err := send(ctx, s.FD, msg.From, reply); err != nil {
		s.Fault = "send: " + err.Error()
		return kernel.Exit(0, 2)
	}
	return kernel.Continue(5 * sim.Microsecond)
}

// Client is the in-pod DHCP client. It discovers a lease, then renews it
// every RenewEvery. Its identity comes from ctx.HWAddr — the interposed
// fake MAC inside a pod.
type Client struct {
	ServerAddr tcpip.AddrPort // directed renewals (zero = broadcast only)
	RenewEvery sim.Duration

	Phase    int
	FD       int
	MAC      ether.MAC
	XID      uint32
	Lease    tcpip.Addr
	Renewals uint64
	// LeaseChanged records a renewal that returned a different address —
	// exactly the failure the fake-MAC interposition prevents.
	LeaseChanged bool
	Fault        string
}

// NewClient builds a client that renews every renewEvery.
func NewClient(renewEvery sim.Duration) *Client {
	if renewEvery <= 0 {
		renewEvery = 10 * sim.Second
	}
	return &Client{RenewEvery: renewEvery}
}

func (c *Client) fail(m string) kernel.StepResult {
	c.Fault = m
	return kernel.Exit(0, 2)
}

// Step implements kernel.Program.
func (c *Client) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch c.Phase {
	case 0: // open socket, learn (interposed) MAC, broadcast DISCOVER
		fd, err := ctx.OpenUDP(tcpip.AddrPort{Port: ClientPort}, true)
		if err != nil {
			return c.fail("open: " + err.Error())
		}
		c.FD = fd
		mac, err := ctx.HWAddr("eth0")
		if err != nil {
			return c.fail("hwaddr: " + err.Error())
		}
		c.MAC = mac
		c.XID++
		msg := &Message{Type: Discover, ClientMAC: c.MAC, XID: c.XID}
		if err := send(ctx, c.FD, tcpip.AddrPort{Addr: tcpip.AddrBroadcast, Port: ServerPort}, msg); err != nil {
			return c.fail("discover: " + err.Error())
		}
		c.Phase = 1
		return kernel.Continue(0)
	case 1: // await OFFER
		m, from, res := c.recvTyped(ctx, Offer)
		if res != nil {
			return *res
		}
		c.ServerAddr = from
		req := &Message{Type: Request, ClientMAC: c.MAC, YourIP: m.YourIP, XID: c.XID}
		if err := send(ctx, c.FD, from, req); err != nil {
			return c.fail("request: " + err.Error())
		}
		c.Phase = 2
		return kernel.Continue(0)
	case 2: // await ACK
		m, _, res := c.recvTyped(ctx, Ack)
		if res != nil {
			return *res
		}
		if c.Lease != (tcpip.Addr{}) && m.YourIP != c.Lease {
			c.LeaseChanged = true
		}
		c.Lease = m.YourIP
		c.Renewals++
		c.Phase = 3
		return kernel.Continue(0)
	case 3: // hold the lease, then renew
		c.Phase = 4
		return kernel.Sleep(0, c.RenewEvery)
	default: // renew: directed REQUEST with our (fake) MAC
		mac, err := ctx.HWAddr("eth0")
		if err != nil {
			return c.fail("hwaddr: " + err.Error())
		}
		c.MAC = mac
		c.XID++
		req := &Message{Type: Request, ClientMAC: c.MAC, YourIP: c.Lease, XID: c.XID}
		if err := send(ctx, c.FD, c.ServerAddr, req); err != nil {
			return c.fail("renew: " + err.Error())
		}
		c.Phase = 2
		return kernel.Continue(0)
	}
}

// recvTyped reads one message of the wanted type, handling blocking and
// NAKs. A non-nil StepResult means "return this from Step".
func (c *Client) recvTyped(ctx *kernel.ProcContext, want MsgType) (*Message, tcpip.AddrPort, *kernel.StepResult) {
	msg, err := ctx.RecvFrom(c.FD)
	if err == kernel.ErrWouldBlock {
		r := kernel.BlockOnRead(0, c.FD)
		return nil, tcpip.AddrPort{}, &r
	}
	if err != nil {
		r := c.fail("recv: " + err.Error())
		return nil, tcpip.AddrPort{}, &r
	}
	m, derr := decode(msg.Data)
	if derr != nil || m.XID != c.XID {
		r := kernel.Continue(sim.Microsecond) // stale datagram: ignore
		return nil, tcpip.AddrPort{}, &r
	}
	if m.Type == Nak {
		r := c.fail("lease NAKed")
		return nil, tcpip.AddrPort{}, &r
	}
	if m.Type != want {
		r := kernel.Continue(sim.Microsecond)
		return nil, tcpip.AddrPort{}, &r
	}
	return m, msg.From, nil
}
