package tcpip

import "fmt"

// UDPMessage is a received datagram with its source endpoint.
type UDPMessage struct {
	From AddrPort
	Data []byte
}

// UDPConn is a UDP socket. The simulation uses UDP for DHCP (§4.2) and
// for test traffic.
type UDPConn struct {
	stack  *Stack
	local  AddrPort
	queue  []UDPMessage
	limit  int
	closed bool
	notify func()

	// Broadcast permits sending to the limited broadcast address, like
	// SO_BROADCAST.
	Broadcast bool
}

// defaultUDPQueueLimit bounds the receive queue in datagrams.
const defaultUDPQueueLimit = 64

// OpenUDP binds a UDP socket to local. A zero port allocates an ephemeral
// port; an unspecified address receives datagrams for any interface.
func (s *Stack) OpenUDP(local AddrPort) (*UDPConn, error) {
	if !local.Addr.IsAny() && s.ifaceByIP(local.Addr) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, local.Addr)
	}
	if local.Port == 0 {
		p, err := s.allocEphemeralPort(local.Addr)
		if err != nil {
			return nil, err
		}
		local.Port = p
	} else if _, ok := s.udpConns[local]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, local)
	}
	u := &UDPConn{stack: s, local: local, limit: defaultUDPQueueLimit}
	s.udpConns[local] = u
	return u, nil
}

// LocalAddr returns the socket's bound endpoint.
func (u *UDPConn) LocalAddr() AddrPort { return u.local }

// SetNotify installs a callback invoked whenever a datagram arrives.
func (u *UDPConn) SetNotify(fn func()) { u.notify = fn }

// SendTo transmits data to remote. The source address is the socket's
// bound address, or the first interface when bound to the unspecified
// address.
func (u *UDPConn) SendTo(remote AddrPort, data []byte) error {
	if u.closed {
		return ErrClosed
	}
	src := u.local.Addr
	if src.IsAny() {
		a, ok := u.stack.FirstAddr()
		if !ok {
			return ErrNoRoute
		}
		src = a
	}
	if remote.Addr.IsBroadcast() && !u.Broadcast {
		return fmt.Errorf("tcpip: broadcast not enabled on socket %s", u.local)
	}
	body := make([]byte, len(data))
	copy(body, data)
	pkt := &Packet{
		Src:   src,
		Dst:   remote.Addr,
		Proto: ProtoUDP,
		TTL:   64,
		UDP:   &Datagram{SrcPort: u.local.Port, DstPort: remote.Port, Data: body},
	}
	return u.stack.sendIP(pkt)
}

// RecvFrom dequeues one datagram, or returns ErrWouldBlock.
func (u *UDPConn) RecvFrom() (UDPMessage, error) {
	if len(u.queue) == 0 {
		if u.closed {
			return UDPMessage{}, ErrClosed
		}
		return UDPMessage{}, ErrWouldBlock
	}
	m := u.queue[0]
	u.queue = u.queue[1:]
	return m, nil
}

// Pending returns the number of queued datagrams.
func (u *UDPConn) Pending() int { return len(u.queue) }

// Close releases the socket.
func (u *UDPConn) Close() {
	if u.closed {
		return
	}
	u.closed = true
	delete(u.stack.udpConns, u.local)
}

// PendingMessages returns a copy of the receive queue (checkpointer).
func (u *UDPConn) PendingMessages() []UDPMessage {
	out := make([]UDPMessage, len(u.queue))
	copy(out, u.queue)
	return out
}

// RestoreMessages refills the receive queue from a checkpoint image.
func (u *UDPConn) RestoreMessages(ms []UDPMessage) {
	u.queue = append(u.queue, ms...)
}

// rxUDP delivers a datagram to the matching socket: exact address match
// first, then wildcard-address match, including broadcasts.
func (s *Stack) rxUDP(p *Packet, d *Datagram) {
	deliver := func(u *UDPConn) {
		if len(u.queue) >= u.limit {
			return // tail drop, like a full socket buffer
		}
		u.queue = append(u.queue, UDPMessage{
			From: AddrPort{Addr: p.Src, Port: d.SrcPort},
			Data: d.Data,
		})
		if u.notify != nil {
			u.notify()
		}
	}
	if p.Dst.IsBroadcast() {
		// Broadcasts reach every socket on the port, however bound.
		for ap, u := range s.udpConns {
			if ap.Port == d.DstPort {
				deliver(u)
			}
		}
		return
	}
	if u, ok := s.udpConns[AddrPort{Addr: p.Dst, Port: d.DstPort}]; ok {
		deliver(u)
		return
	}
	if u, ok := s.udpConns[AddrPort{Port: d.DstPort}]; ok {
		deliver(u)
	}
}
