package ctl

import (
	"bytes"

	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Codec is all an Endpoint knows of its daemon's message type M. Encode
// writes m's payload head into buf and returns the parts that follow it,
// which go out uncopied, with the trace context and tier of m's frame.
// Decode parses a payload from a frame with ctx. The payload comes as a
// reader of the pieces it arrived in: each part the sender passed
// uncopied, as a slice of the sender's own bytes where it lies whole in
// one piece, and the copied bytes in the connection's stage, lent for the
// length of the call. The result may keep what the reader's Next hands
// out, but never write it, nor append to it; of what Peek and Piece hand
// out it keeps nothing.
type Codec[M any] struct {
	Encode func(buf *bytes.Buffer, m M) (parts [][]byte, ctx trace.SpanContext, tier Tier, err error)
	Decode func(r PieceReader, ctx trace.SpanContext) (M, error)
}

// Endpoint is one daemon's end of the control plane: it accepts the
// connections its listener gets, dials peers, reusing a link until it
// errs, and frames every message through the daemon's codec. The Cruz
// daemons and the flushing baseline's all run on it, so the two protocols
// differ in what they say and in nothing else.
type Endpoint[M any] struct {
	stack    *tcpip.Stack
	codec    Codec[M]
	onMsg    func(*Link[M], M) // gets every message received, with its link
	pacer    *Pacer
	listener *tcpip.TCPListener
	// links holds the dialed links, under the address dialed, until they
	// err: every error reaches fail in the event that raised it.
	links map[tcpip.AddrPort]*Link[M]
}

// Link is one control connection of an endpoint, accepted or dialed.
type Link[M any] struct {
	*Conn
	ep   *Endpoint[M]
	head bytes.Buffer // stages payload heads, which Conn copies; never bulk
	// up holds the reports of the Connects waiting on a dialed link's
	// handshake, told once: nil when it is established, or its error.
	up []func(error)
}

// Deliver returns an endpoint's onMsg that hands each message, with its
// link, to handle once lane has charged cost for it, in the order they
// arrived: how a daemon pays on its CPU lane for every message it gets.
func Deliver[M any](lane *Serializer, cost sim.Duration, handle func(*Link[M], M)) func(*Link[M], M) {
	in := NewInbox(lane, func(r received[M]) { handle(r.link, r.m) })
	return func(l *Link[M], m M) { in.Do(cost, received[M]{l, m}) }
}

// received is a message waiting on a lane, with the link it came on.
type received[M any] struct {
	link *Link[M]
	m    M
}

// NewEndpoint creates an endpoint on stack.
func NewEndpoint[M any](stack *tcpip.Stack, codec Codec[M], onMsg func(*Link[M], M)) *Endpoint[M] {
	return &Endpoint[M]{stack: stack, codec: codec, onMsg: onMsg, links: make(map[tcpip.AddrPort]*Link[M])}
}

// Listen accepts connections on port of the stack's first address.
func (e *Endpoint[M]) Listen(port uint16) error {
	addr, ok := e.stack.FirstAddr()
	if !ok {
		return tcpip.ErrNoRoute
	}
	l, err := e.stack.ListenTCP(tcpip.AddrPort{Addr: addr, Port: port}, 16)
	if err != nil {
		return err
	}
	e.listener = l
	l.SetNotify(func() {
		for tc, err := l.Accept(); err == nil; tc, err = l.Accept() {
			e.link(tc)
		}
	})
	return nil
}

// Addr returns the address Listen accepts on.
func (e *Endpoint[M]) Addr() tcpip.AddrPort { return e.listener.LocalAddr() }

// SetPacer attaches p to every link accepted or dialed from now on.
func (e *Endpoint[M]) SetPacer(p *Pacer) { e.pacer = p }

func (e *Endpoint[M]) link(tc *tcpip.TCPConn) *Link[M] {
	l := &Link[M]{ep: e}
	l.Conn = newConn(tc, l.frame, l.fail)
	if e.pacer != nil {
		l.SetPacer(e.pacer)
	}
	return l
}

// Dial returns the live link to addr, dialing one if there is none. Its
// frames queue until the handshake completes.
func (e *Endpoint[M]) Dial(addr tcpip.AddrPort) (*Link[M], error) {
	if l := e.links[addr]; l != nil {
		return l, nil
	}
	tc, err := e.stack.DialTCP(tcpip.AddrPort{}, addr)
	if err != nil {
		return nil, err
	}
	l := e.link(tc)
	e.links[addr] = l
	return l, nil
}

// notify pumps a link Connect waits on, then tells the Connects waiting
// on it once its handshake is over.
func (l *Link[M]) notify() {
	l.Pump()
	err := l.TCP().Err()
	if len(l.up) == 0 || err == nil && !l.TCP().Established() {
		return
	}
	up := l.up
	l.up = nil
	for _, report := range up {
		report(err)
	}
}

// Connect dials every address in addrs with no live link and calls done
// once: with nil when every link to addrs is established (at once if all
// were), or with the first error a dial or a handshake meets. A link
// still in its handshake, dialed now or before, is waited for.
func (e *Endpoint[M]) Connect(addrs []tcpip.AddrPort, done func(error)) {
	pending := 1 // each handshake waited for, and the loop below until it ends
	report := func(err error) {
		if pending--; done != nil && (err != nil || pending == 0) {
			d := done
			done = nil
			d(err)
		}
	}
	for _, addr := range addrs {
		l, err := e.Dial(addr)
		if err != nil {
			report(err)
			return
		}
		if !l.TCP().Established() {
			pending++
			l.up = append(l.up, report)
			l.TCP().SetNotify(l.notify)
		}
	}
	report(nil)
}

// Link returns the established link dialed to addr, if there is one.
func (e *Endpoint[M]) Link(addr tcpip.AddrPort) (*Link[M], bool) {
	l := e.links[addr]
	if l == nil || !l.TCP().Established() {
		return nil, false
	}
	return l, true
}

// Send frames m through the endpoint's codec. Like SendParts it errs only
// on a dead connection, or on a message the codec cannot encode.
func (l *Link[M]) Send(m M) error {
	l.head.Reset()
	parts, ctx, tier, err := l.ep.codec.Encode(&l.head, m)
	if err != nil {
		return err
	}
	return l.SendParts(l.head.Bytes(), parts, ctx, tier)
}

// frame hands a received payload to onMsg. One that does not decode is
// a connection error.
func (l *Link[M]) frame(c *Conn, r PieceReader) {
	if m, err := l.ep.codec.Decode(r, c.FrameCtx()); err != nil {
		l.fail(c, err)
	} else {
		l.ep.onMsg(l, m)
	}
}

// fail forgets a link that erred, so the next Dial or Connect dials anew.
func (l *Link[M]) fail(*Conn, error) {
	if addr := l.TCP().RemoteAddr(); l.ep.links[addr] == l {
		delete(l.ep.links, addr)
	}
}
