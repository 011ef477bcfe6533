package tcpip

import (
	"fmt"
	"io"

	"cruz/internal/sim"
	"cruz/internal/trace"
)

// State is a TCP connection state (RFC 793).
type State int

// TCP states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = map[State]string{
	StateClosed:      "CLOSED",
	StateListen:      "LISTEN",
	StateSynSent:     "SYN_SENT",
	StateSynRcvd:     "SYN_RCVD",
	StateEstablished: "ESTABLISHED",
	StateFinWait1:    "FIN_WAIT_1",
	StateFinWait2:    "FIN_WAIT_2",
	StateCloseWait:   "CLOSE_WAIT",
	StateClosing:     "CLOSING",
	StateLastAck:     "LAST_ACK",
	StateTimeWait:    "TIME_WAIT",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// TCP's parameters: the behaviour of the Linux 2.4 systems in the paper's
// testbed, closely enough for the reproduced experiments (DESIGN §5).
const (
	mss         = 1460                  // maximum segment payload
	sndBufLimit = 65536                 // send buffer size in bytes
	rcvBufLimit = 65535                 // receive buffer / max advertised window
	rtoInit     = 1 * sim.Second        // retransmission timeout before first RTT sample
	rtoMin      = 200 * sim.Millisecond // floor for the computed RTO
	rtoMax      = 120 * sim.Second      // cap under exponential backoff
	msl         = 2 * sim.Second        // maximum segment lifetime (TIME_WAIT = 2*msl)
	synRetries  = 5                     // SYN retransmissions before giving up
	dataRetries = 15                    // data retransmissions before reset
	initialCwnd = 2                     // initial congestion window, in segments
)

// TCPConnStats counts per-connection activity.
type TCPConnStats struct {
	BytesSent, BytesReceived uint64
	SegsSent, SegsReceived   uint64
	Retransmits              uint64
	FastRetransmits          uint64
	RTOFirings               uint64
}

// inflightSeg is one packetized, possibly-unsent-yet-unacked segment in
// the send buffer. The paper's checkpoint walks exactly this structure:
// "read and save the application-level data found in the send buffer and
// record the packet boundaries".
type inflightSeg struct {
	seq uint32
	payload
	fin    bool
	sentAt sim.Time
	retx   int
	// pool is the buffer drawn from the stack's segPool, which takes it
	// back on the ack: Data itself when the segment is copied bytes, the
	// copied runs' bytes when it spans several, nil when nothing was
	// copied. Every other byte — sliced from a referenced run, a restored
	// copy, a persist probe's byte — is never written again, so it goes
	// out flagged and the receiver queues it by reference.
	pool []byte
	// needsRetx marks a segment presumed lost after an RTO; recovery
	// retransmits marked segments under congestion-window clocking
	// (go-back-N with slow start, as classic TCP does after a timeout).
	needsRetx bool
}

func (g *inflightSeg) seqLen() uint32 {
	n := uint32(g.len())
	if g.fin {
		n++
	}
	return n
}

func (g *inflightSeg) end() uint32 { return g.seq + g.seqLen() }

// oooSeg is an out-of-order received segment awaiting reassembly.
type oooSeg struct {
	seq uint32
	payload
	fin bool
}

// TCPConn is a TCP connection endpoint. All operations are non-blocking:
// Send/Recv return ErrWouldBlock and the kernel layer sleeps the calling
// process until the notify callback fires.
type TCPConn struct {
	stack *Stack
	tuple FourTuple
	state State
	// name is tuple.String(), formatted on the first traced event.
	name string

	// Send side. Sequence space: sndUna <= sndNxt; segs covers
	// [sndUna, sndNxt) in packetized form; pending holds accepted bytes
	// not yet packetized. pending and rcvQueue are byteQueues: Send and
	// unflagged ingest copy bytes in, SendRef and flagged ingest queue
	// them by reference, and neither allocates once the queue has
	// reached the buffer limit. packetize slices a segment straight out
	// of referenced runs and copies only copied bytes.
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	sndWnd    uint32
	segs      sim.Queue[inflightSeg]
	pending   byteQueue
	finQueued bool
	finSent   bool

	// Congestion control (Reno-flavoured, byte-counted).
	cwnd     int
	ssthresh int
	dupAcks  int

	// Receive side.
	irs               uint32
	rcvNxt            uint32
	rcvQueue          byteQueue
	rcvClosed         bool // in-order FIN consumed
	ooo               []oooSeg
	lastWndAdvertised uint32

	// altQueue holds receive-buffer bytes restored from a checkpoint
	// image. Zap's interposed recv drains it before touching live TCP
	// data (§4.1).
	altQueue []byte

	// Options.
	noDelay bool
	cork    bool

	// Timers and RTT estimation (Jacobson/Karn). onRTOFn is onRTO bound
	// once: a method value allocates each time it is taken.
	onRTOFn      func()
	rtoTimer     *sim.Event
	persistTimer *sim.Event
	twTimer      *sim.Event
	rto          sim.Duration
	srtt         sim.Duration
	rttvar       sim.Duration
	hasRTT       bool
	sampleSeq    uint32
	sampleAt     sim.Time
	sampleValid  bool

	synRetriesUsed int

	notify   func()
	err      error
	listener *TCPListener // set while a passive open completes

	// Stats counts activity on this connection.
	Stats TCPConnStats
}

// TCPListener is a passive TCP socket.
type TCPListener struct {
	stack   *Stack
	local   AddrPort
	backlog int
	synRcvd int
	acceptQ []*TCPConn
	notify  func()
	closed  bool
}

// ListenTCP creates a listening socket on local. A zero port allocates an
// ephemeral port; an unspecified address accepts connections to any local
// interface.
func (s *Stack) ListenTCP(local AddrPort, backlog int) (*TCPListener, error) {
	if !local.Addr.IsAny() && s.ifaceByIP(local.Addr) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, local.Addr)
	}
	if local.Port == 0 {
		p, err := s.allocEphemeralPort(local.Addr)
		if err != nil {
			return nil, err
		}
		local.Port = p
	} else if !s.portFree(local.Addr, local.Port) {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, local)
	}
	if backlog <= 0 {
		backlog = 8
	}
	l := &TCPListener{stack: s, local: local, backlog: backlog}
	s.listeners[local] = l
	return l, nil
}

// LocalAddr returns the listening endpoint.
func (l *TCPListener) LocalAddr() AddrPort { return l.local }

// SetNotify installs a callback fired when a connection becomes ready to
// accept.
func (l *TCPListener) SetNotify(fn func()) { l.notify = fn }

// Acceptable reports whether Accept would succeed now.
func (l *TCPListener) Acceptable() bool { return len(l.acceptQ) > 0 }

// Accept dequeues an established connection or returns ErrWouldBlock.
func (l *TCPListener) Accept() (*TCPConn, error) {
	if l.closed {
		return nil, ErrClosed
	}
	if len(l.acceptQ) == 0 {
		return nil, ErrWouldBlock
	}
	c := l.acceptQ[0]
	l.acceptQ = l.acceptQ[1:]
	return c, nil
}

// Close stops listening. Connections already established or queued are
// aborted.
func (l *TCPListener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.listeners, l.local)
	for _, c := range l.acceptQ {
		c.Abort()
	}
	l.acceptQ = nil
}

// DialTCP starts an active open from local to remote. If local.Addr is
// unspecified the first interface's address is used (the paper's Zap layer
// interposes bind/connect to force the pod's VIF address; see
// internal/zap). If local.Port is zero an ephemeral port is allocated.
// The returned connection is in SYN_SENT; the notify callback fires when
// it becomes established or fails.
func (s *Stack) DialTCP(local AddrPort, remote AddrPort) (*TCPConn, error) {
	if local.Addr.IsAny() {
		a, ok := s.FirstAddr()
		if !ok {
			return nil, ErrNoRoute
		}
		local.Addr = a
	}
	if s.ifaceByIP(local.Addr) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, local.Addr)
	}
	if local.Port == 0 {
		p, err := s.allocEphemeralPort(local.Addr)
		if err != nil {
			return nil, err
		}
		local.Port = p
	}
	tuple := FourTuple{Local: local, Remote: remote}
	if _, ok := s.conns[tuple]; ok {
		return nil, fmt.Errorf("%w: %s", ErrConnExists, tuple)
	}
	c := s.newConn(tuple)
	c.setState(StateSynSent)
	s.conns[tuple] = c
	c.sendControl(FlagSYN, c.iss, 0)
	c.sndNxt = c.iss + 1
	c.armRTO()
	return c, nil
}

// newConn builds a connection with fresh sequence state.
func (s *Stack) newConn(tuple FourTuple) *TCPConn {
	iss := uint32(s.engine.Rand().Int63())
	c := &TCPConn{
		stack:             s,
		tuple:             tuple,
		iss:               iss,
		sndUna:            iss,
		sndNxt:            iss,
		sndWnd:            mss,
		cwnd:              initialCwnd * mss,
		ssthresh:          rcvBufLimit,
		rto:               rtoInit,
		lastWndAdvertised: rcvBufLimit,
	}
	c.onRTOFn = c.onRTO
	return c
}

// Accessors.

// State returns the connection state.
func (c *TCPConn) State() State { return c.state }

// setState transitions the RFC 793 state machine, tracing the transition.
// All state changes (except construction and checkpoint restore, which
// install state rather than transition it) flow through here.
func (c *TCPConn) setState(next State) {
	if c.state == next {
		return
	}
	c.stack.tr.Instant(c.stack.name, "tcp", "state",
		trace.Str("conn", c.traceName()),
		trace.Str("from", c.state.String()),
		trace.Str("to", next.String()))
	c.state = next
}

// traceName returns the four-tuple as the tracer records it, formatting
// it once per connection.
func (c *TCPConn) traceName() string {
	if c.name == "" {
		c.name = c.tuple.String()
	}
	return c.name
}

// LocalAddr returns the local endpoint.
func (c *TCPConn) LocalAddr() AddrPort { return c.tuple.Local }

// RemoteAddr returns the remote endpoint.
func (c *TCPConn) RemoteAddr() AddrPort { return c.tuple.Remote }

// Tuple returns the connection four-tuple.
func (c *TCPConn) Tuple() FourTuple { return c.tuple }

// Err returns the terminal error, if the connection failed.
func (c *TCPConn) Err() error { return c.err }

// SetNotify installs the state-change callback.
func (c *TCPConn) SetNotify(fn func()) { c.notify = fn }

// SetNoDelay disables (true) or enables (false) the Nagle algorithm.
// Restore sets it true while replaying the saved send buffer so packet
// boundaries survive (§4.1).
func (c *TCPConn) SetNoDelay(v bool) { c.noDelay = v; c.trySend() }

// SetCork corks (true) or uncorks (false) the connection, like TCP_CORK.
func (c *TCPConn) SetCork(v bool) {
	c.cork = v
	if !v {
		c.trySend()
	}
}

// Cork reports the cork setting.
func (c *TCPConn) Cork() bool { return c.cork }

// Readable reports whether Recv would return data or EOF now.
func (c *TCPConn) Readable() bool {
	return len(c.altQueue) > 0 || c.rcvQueue.Len() > 0 || c.rcvClosed || c.err != nil
}

// ReadableBytes returns the number of buffered readable bytes (restored
// alternate buffer plus live receive queue).
func (c *TCPConn) ReadableBytes() int { return len(c.altQueue) + c.rcvQueue.Len() }

// WritableSpace returns the free send-buffer space in bytes.
func (c *TCPConn) WritableSpace() int {
	used := int(c.sndNxt-c.sndUna) + c.pending.Len()
	space := sndBufLimit - used
	if space < 0 {
		return 0
	}
	return space
}

// Established reports whether the connection is in a data-transfer state.
func (c *TCPConn) Established() bool {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateFinWait2, StateClosing:
		return true
	}
	return false
}

// Send copies bytes into the send buffer, returning how many were
// accepted; the caller may reuse b as soon as it returns. It returns
// ErrWouldBlock when the send buffer is full, and the terminal error if
// the connection failed or is closing.
func (c *TCPConn) Send(b []byte) (int, error) { return c.send(b, false) }

// SendRef is Send without the copy: the accepted bytes are queued,
// packetized, retransmitted and received as slices of b. The caller
// must never write to b again — a receiver may keep referencing it
// after the ack — which store blobs, chunks and manifests, immutable
// once planned, satisfy for free.
func (c *TCPConn) SendRef(b []byte) (int, error) { return c.send(b, true) }

func (c *TCPConn) send(b []byte, ref bool) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	switch c.state {
	case StateEstablished, StateCloseWait:
	case StateSynSent, StateSynRcvd:
		return 0, ErrNotConnected
	default:
		return 0, ErrClosed
	}
	space := c.WritableSpace()
	if space == 0 {
		return 0, ErrWouldBlock
	}
	n := len(b)
	if n > space {
		n = space
	}
	if ref {
		c.pending.writeRef(b[:n])
	} else {
		c.pending.write(b[:n])
	}
	c.trySend()
	return n, nil
}

// Recv copies buffered data into b. With peek set, the data is not
// consumed (MSG_PEEK; the paper's checkpoint uses this to read receive
// buffers non-destructively). At end of stream it returns (0, io.EOF).
func (c *TCPConn) Recv(b []byte, peek bool) (int, error) {
	if err := c.recvEmpty(); err != nil {
		return 0, err
	}
	// Alternate (restored) buffer drains first, transparently.
	fromAlt := copy(b, c.altQueue)
	fromLive := c.rcvQueue.peek(b[fromAlt:])
	if peek {
		return fromAlt + fromLive, nil
	}
	c.altQueue = c.altQueue[fromAlt:]
	c.rcvQueue.discard(fromLive)
	c.maybeSendWindowUpdate(fromLive)
	return fromAlt + fromLive, nil
}

// RecvRef consumes up to max buffered bytes like Recv, but appends them
// to dst as slices, extending dst's last slice where the bytes continue
// it, and returns dst, buf and the count. Bytes the peer sent by
// reference come as slices of its immutable bytes and stay valid for
// good; so do restored bytes, which the connection never writes again.
// Bytes that arrived by copy are copied out at once, to the end of buf
// within its capacity, and come as slices of buf: the connection keeps
// nothing of them. Where buf has no room for the next copied byte,
// RecvRef stops; a zero count with a nil error means buf is full. The
// caller must not write to the slices, nor append to them: their
// capacity runs on into bytes that are not theirs.
func (c *TCPConn) RecvRef(dst [][]byte, buf []byte, max int) ([][]byte, []byte, int, error) {
	if err := c.recvEmpty(); err != nil {
		return dst, buf, 0, err
	}
	fromAlt := min(max, len(c.altQueue))
	if fromAlt > 0 {
		dst = append(dst, c.altQueue[:fromAlt:fromAlt])
		c.altQueue = c.altQueue[fromAlt:]
	}
	dst, buf, fromLive := c.rcvQueue.take(dst, buf, min(max-fromAlt, c.rcvQueue.Len()))
	c.maybeSendWindowUpdate(fromLive)
	return dst, buf, fromAlt + fromLive, nil
}

// recvEmpty returns the error a receive reports when nothing is
// buffered, and nil when something is.
func (c *TCPConn) recvEmpty() error {
	if len(c.altQueue) > 0 || c.rcvQueue.Len() > 0 {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	if c.rcvClosed {
		return io.EOF
	}
	if !c.Established() && c.state != StateTimeWait {
		return ErrNotConnected
	}
	return ErrWouldBlock
}

// maybeSendWindowUpdate sends a pure ACK when the app's read reopens a
// window the peer may believe is closed or nearly closed.
func (c *TCPConn) maybeSendWindowUpdate(consumed int) {
	if consumed == 0 || !c.Established() {
		return
	}
	newWnd := c.rcvWindow()
	if c.lastWndAdvertised == 0 || (newWnd >= mss && c.lastWndAdvertised < mss) {
		c.sendControl(FlagACK, c.sndNxt, c.rcvNxt)
	}
}

// Close initiates an orderly close. Buffered data is still delivered; the
// FIN follows the last pending byte.
func (c *TCPConn) Close() error {
	switch c.state {
	case StateClosed, StateTimeWait, StateLastAck, StateClosing, StateFinWait1, StateFinWait2:
		return nil
	case StateSynSent, StateSynRcvd:
		c.teardown(nil)
		return nil
	case StateEstablished:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	}
	c.finQueued = true
	c.trySend()
	return nil
}

// Abort sends a RST and destroys the connection immediately (SO_LINGER-0
// semantics). Pod teardown after a checkpointed migration uses it so the
// old instance never speaks again.
func (c *TCPConn) Abort() {
	if c.state == StateClosed {
		return
	}
	if c.Established() || c.state == StateSynRcvd {
		c.sendControl(FlagRST, c.sndNxt, 0)
	}
	c.teardown(ErrClosed)
}

// Destroy removes the connection silently — no RST, no FIN. It is used
// after a connection's state has been captured into a checkpoint image:
// the peer must keep retransmitting into the void (or to the restored
// incarnation), never learning that this endpoint went away.
func (c *TCPConn) Destroy() {
	if c.state == StateClosed {
		return
	}
	c.teardown(ErrClosed)
}

// teardown releases timers and the connection-table entry.
func (c *TCPConn) teardown(err error) {
	if c.err == nil {
		c.err = err
	}
	c.setState(StateClosed)
	c.stack.engine.Cancel(c.rtoTimer)
	c.rtoTimer = nil
	c.stack.engine.Cancel(c.persistTimer)
	c.persistTimer = nil
	c.stack.engine.Cancel(c.twTimer)
	c.twTimer = nil
	// Nothing is sent or reassembled any more, but the application may
	// still read what arrived and ask how much it sent, so the queues keep
	// their bytes — as copies, for a dead connection to pin no peer's or
	// caller's arrays.
	c.segs, c.ooo = sim.Queue[inflightSeg]{}, nil
	c.pending.own()
	c.rcvQueue.own()
	delete(c.stack.conns, c.tuple)
	c.wake()
}

func (c *TCPConn) wake() {
	if c.notify != nil {
		c.notify()
	}
}

// rcvWindow returns the advertised receive window.
func (c *TCPConn) rcvWindow() uint32 {
	w := rcvBufLimit - c.rcvQueue.Len()
	if w < 0 {
		w = 0
	}
	if w > 65535 {
		w = 65535
	}
	return uint32(w)
}

// sendControl emits a data-less segment with the given flags.
func (c *TCPConn) sendControl(flags Flags, seq, ack uint32) {
	c.sendSeg(flags, seq, ack, payload{})
}

// sendSeg builds one segment from this end of the connection, advertising
// the current receive window, and hands it to IP.
func (c *TCPConn) sendSeg(flags Flags, seq, ack uint32, p payload) {
	wnd := uint16(c.rcvWindow())
	c.lastWndAdvertised = uint32(wnd)
	c.Stats.SegsSent++
	c.stack.sendTCP(c.tuple.Local.Addr, c.tuple.Remote.Addr, Segment{
		SrcPort: c.tuple.Local.Port,
		DstPort: c.tuple.Remote.Port,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  wnd,
		payload: p,
	})
}

// transmitSeg puts an in-flight segment on the wire.
func (c *TCPConn) transmitSeg(g *inflightSeg) {
	flags := FlagACK
	if g.fin {
		flags |= FlagFIN
	}
	n := g.len()
	if n > 0 {
		flags |= FlagPSH
	}
	g.sentAt = c.stack.engine.Now()
	c.Stats.BytesSent += uint64(n)
	c.sendSeg(flags, g.seq, c.rcvNxt, g.payload)
	// Time one segment at a time for RTT (Karn's rule: never a
	// retransmitted one).
	if !c.sampleValid && g.retx == 0 {
		c.sampleValid = true
		c.sampleSeq = g.end()
		c.sampleAt = g.sentAt
	}
}

// inflightBytes returns the sequence-space span currently unacknowledged.
func (c *TCPConn) inflightBytes() int { return int(c.sndNxt - c.sndUna) }

// usableWindow returns how many more bytes may enter flight.
func (c *TCPConn) usableWindow() int {
	wnd := int(c.sndWnd)
	if c.cwnd < wnd {
		wnd = c.cwnd
	}
	u := wnd - c.inflightBytes()
	if u < 0 {
		return 0
	}
	return u
}

// trySend packetizes pending data and transmits whatever the send window
// permits, applying Nagle and cork rules, and finally the queued FIN.
func (c *TCPConn) trySend() {
	if !c.Established() && c.state != StateLastAck {
		return
	}
	for c.pending.Len() > 0 {
		usable := c.usableWindow()
		if usable == 0 {
			c.armPersistIfNeeded()
			break
		}
		n := min(c.pending.Len(), mss, usable)
		if n < mss && c.pending.Len() < mss {
			// Sub-MSS segment: cork always holds it; Nagle holds it
			// while anything is in flight.
			if c.cork {
				break
			}
			if !c.noDelay && c.inflightBytes() > 0 {
				break
			}
		}
		g := c.segs.Push(inflightSeg{seq: c.sndNxt})
		c.packetize(g, n)
		c.sndNxt += uint32(n)
		c.transmitSeg(g)
	}
	if c.finQueued && !c.finSent && c.pending.Len() == 0 {
		g := c.segs.Push(inflightSeg{seq: c.sndNxt, fin: true})
		c.sndNxt++
		c.finSent = true
		c.transmitSeg(g)
	}
	if c.segs.Len() > 0 {
		c.armRTO()
	}
}

// packetize moves the next n pending bytes into g. Only copied bytes
// are copied, into one pooled segment buffer; referenced ones stay
// slices of their array. A segment that spans several runs — a frame's
// head and the part after it, or the boundary between two parts —
// carries them as such, so a part crosses uncopied however its segments
// fall.
func (c *TCPConn) packetize(g *inflightSeg, n int) {
	runs, copied := c.pending.shape(n)
	if copied > 0 {
		g.pool = c.stack.getSegBuf(copied)
	}
	if runs <= 2 {
		var two [2]span
		c.pending.cut(n, two[:runs], g.pool)
		g.Data, g.ref, g.next = two[0].b, two[0].ref, two[1]
		return
	}
	spans := c.stack.spanSlots(runs)
	c.pending.cut(n, spans, g.pool)
	g.Data, g.ref, g.next, g.more = spans[0].b, spans[0].ref, spans[1], spans[2:]
}

// spanSlabCap is the number of run slots in one slab (spanSlots).
const spanSlabCap = 1024

// spanSlots returns k fresh run slots for a segment that spans k > 2
// runs; one of two runs keeps them inline. A slot is never reused — a
// retransmitted segment's duplicate may still be in flight, or parked
// out of order at the peer, after its ack — so the slots come from a
// slab of the stack's that is only appended to: a full slab is left to
// the garbage collector and a new one takes over. A segment thus
// allocates nothing of its own, and the slab keeps the arrays of at most
// its spanSlabCap runs alive past their segments.
func (s *Stack) spanSlots(k int) []span {
	if cap(s.slab)-len(s.slab) < k {
		s.slab = make([]span, 0, max(k, spanSlabCap))
	}
	n := len(s.slab)
	s.slab = s.slab[:n+k]
	return s.slab[n : n+k : n+k]
}

// armRTO starts the retransmission timer if it is not already running.
// The timer field is nil'd whenever the event fires or is canceled (the
// engine recycles dead events), so non-nil means pending.
func (c *TCPConn) armRTO() {
	if c.rtoTimer != nil {
		return
	}
	c.rtoTimer = c.stack.engine.Schedule(c.rto, c.onRTOFn)
}

// resetRTO restarts the retransmission timer.
func (c *TCPConn) resetRTO() {
	c.stack.engine.Cancel(c.rtoTimer)
	c.rtoTimer = c.stack.engine.Schedule(c.rto, c.onRTOFn)
}

// onRTO fires when the oldest outstanding segment times out.
func (c *TCPConn) onRTO() {
	c.rtoTimer = nil // fired: the engine recycles it
	switch c.state {
	case StateSynSent:
		c.Stats.RTOFirings++
		if c.retrySYN() {
			return
		}
		c.teardown(ErrTimeout)
		return
	case StateClosed, StateListen, StateTimeWait:
		return
	}
	if c.segs.Len() == 0 {
		return
	}
	c.Stats.RTOFirings++
	g := c.segs.At(0)
	if g.retx >= dataRetries {
		c.teardown(ErrTimeout)
		return
	}
	g.retx++
	c.Stats.Retransmits++
	c.stack.tr.Instant(c.stack.name, "tcp", "rto",
		trace.Str("conn", c.traceName()),
		trace.Int("retx", int64(g.retx)),
		trace.Num("rto_ms", c.rto.Milliseconds()))
	// Loss response: collapse to one segment and slow-start again. All
	// other outstanding segments are presumed lost too and will be
	// retransmitted as the window reopens (pumpRetransmits).
	c.ssthresh = maxInt(c.inflightBytes()/2, 2*mss)
	c.cwnd = mss
	c.dupAcks = 0
	c.sampleValid = false // Karn: no sample across retransmission
	for i := 1; i < c.segs.Len(); i++ {
		c.segs.At(i).needsRetx = true
	}
	g.needsRetx = false
	c.transmitSeg(g)
	// Exponential backoff.
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	c.resetRTO()
}

// retrySYN retransmits the initial SYN with backoff; reports whether a
// retry was scheduled.
func (c *TCPConn) retrySYN() bool {
	if c.synRetriesUsed >= synRetries {
		return false
	}
	c.synRetriesUsed++
	c.Stats.Retransmits++
	c.sendControl(FlagSYN, c.iss, 0)
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	c.resetRTO()
	return true
}

// pumpRetransmits re-sends segments presumed lost after an RTO, limited
// by the congestion window measured from the left edge of the send
// buffer. Called on each ACK that makes forward progress, it yields the
// exponential slow-start recovery of the outstanding flight.
func (c *TCPConn) pumpRetransmits() {
	budget := c.cwnd
	for i := 0; i < c.segs.Len(); i++ {
		if budget <= 0 {
			return
		}
		g := c.segs.At(i)
		if g.needsRetx {
			g.needsRetx = false
			g.retx++
			c.Stats.Retransmits++
			c.transmitSeg(g)
		}
		budget -= maxInt(g.len(), 1)
	}
}

// armPersistIfNeeded starts the zero-window probe timer.
func (c *TCPConn) armPersistIfNeeded() {
	if c.sndWnd != 0 || c.pending.Len() == 0 || c.inflightBytes() > 0 {
		return
	}
	if c.persistTimer != nil {
		return
	}
	c.persistTimer = c.stack.engine.Schedule(c.rto, func() {
		c.persistTimer = nil // fired: the engine recycles it
		if c.sndWnd == 0 && c.pending.Len() > 0 && c.Established() {
			// Probe with one byte of pending data.
			g := c.segs.Push(inflightSeg{seq: c.sndNxt, payload: payload{Data: make([]byte, 1), ref: true}})
			c.pending.read(g.Data)
			c.sndNxt++
			c.transmitSeg(g)
			c.armRTO()
		}
	})
}

// updateRTT folds an RTT measurement into the estimator (Jacobson).
func (c *TCPConn) updateRTT(sample sim.Duration) {
	if !c.hasRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasRTT = true
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.computeRTO()
}

// computeRTO derives the timeout from the estimator, clamped to the
// configured bounds.
func (c *TCPConn) computeRTO() sim.Duration {
	if !c.hasRTT {
		return rtoInit
	}
	rto := c.srtt + 4*c.rttvar
	if rto < rtoMin {
		rto = rtoMin
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	return rto
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// rxTCP demultiplexes an inbound TCP segment to a connection or listener.
func (s *Stack) rxTCP(p *Packet) {
	seg := &p.TCP
	tuple := FourTuple{
		Local:  AddrPort{Addr: p.Dst, Port: seg.DstPort},
		Remote: AddrPort{Addr: p.Src, Port: seg.SrcPort},
	}
	if c, ok := s.conns[tuple]; ok {
		c.handleSegment(seg)
		return
	}
	// New connection request?
	if seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		l := s.listeners[tuple.Local]
		if l == nil {
			l = s.listeners[AddrPort{Port: seg.DstPort}]
		}
		if l != nil && !l.closed {
			l.handleSYN(tuple, seg)
			return
		}
	}
	// No socket: answer with RST (unless the segment itself is a RST).
	if !seg.Flags.Has(FlagRST) {
		s.Stats.NoSocketRSTs++
		s.sendTCP(p.Dst, p.Src, Segment{
			SrcPort: seg.DstPort,
			DstPort: seg.SrcPort,
			Flags:   FlagRST | FlagACK,
			Seq:     seg.Ack,
			Ack:     seg.Seq + seg.seqLen(),
		})
	}
}

// handleSYN performs the passive open.
func (l *TCPListener) handleSYN(tuple FourTuple, seg *Segment) {
	if l.synRcvd+len(l.acceptQ) >= l.backlog {
		return // backlog full: drop, client will retry
	}
	c := l.stack.newConn(tuple)
	c.setState(StateSynRcvd)
	c.listener = l
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.sndWnd = uint32(seg.Window)
	l.stack.conns[tuple] = c
	l.synRcvd++
	c.sendControl(FlagSYN|FlagACK, c.iss, c.rcvNxt)
	c.sndNxt = c.iss + 1
	c.armRTO()
}

// handleSegment is the connection-state machine.
func (c *TCPConn) handleSegment(seg *Segment) {
	c.Stats.SegsReceived++

	if seg.Flags.Has(FlagRST) {
		c.handleRST(seg)
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags.Has(FlagSYN) && seg.Flags.Has(FlagACK) && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.sndWnd = uint32(seg.Window)
			c.setState(StateEstablished)
			c.rto = rtoInit
			c.stack.engine.Cancel(c.rtoTimer)
			c.rtoTimer = nil
			c.sendControl(FlagACK, c.sndNxt, c.rcvNxt)
			c.wake()
			c.trySend()
		}
		return
	case StateSynRcvd:
		if seg.Flags.Has(FlagACK) && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.sndWnd = uint32(seg.Window)
			c.setState(StateEstablished)
			c.stack.engine.Cancel(c.rtoTimer)
			c.rtoTimer = nil
			if l := c.listener; l != nil {
				l.synRcvd--
				l.acceptQ = append(l.acceptQ, c)
				c.listener = nil
				if l.notify != nil {
					l.notify()
				}
			}
			// Fall through: the ACK may carry data.
		} else if seg.Flags.Has(FlagSYN) {
			// Duplicate SYN: re-answer.
			c.sendControl(FlagSYN|FlagACK, c.iss, c.rcvNxt)
			return
		} else {
			return
		}
	case StateClosed, StateListen:
		return
	}

	if seg.Flags.Has(FlagACK) {
		c.processACK(seg)
		if c.state == StateClosed {
			return
		}
	}
	if seg.len() > 0 || seg.Flags.Has(FlagFIN) {
		c.processData(seg)
	}
}

// handleRST validates and applies a reset.
func (c *TCPConn) handleRST(seg *Segment) {
	switch c.state {
	case StateSynSent:
		if seg.Flags.Has(FlagACK) && seg.Ack == c.iss+1 {
			c.teardown(ErrReset)
		}
	case StateClosed:
	default:
		// Acceptable if within the receive window (simplified check).
		if seqLE(c.rcvNxt, seg.Seq) || seg.Seq == c.rcvNxt-1 || c.rcvNxt == seg.Seq {
			c.teardown(ErrReset)
		} else {
			c.teardown(ErrReset)
		}
	}
}

// processACK handles acknowledgement, window update, RTT sampling,
// congestion control, and FIN-progress transitions.
func (c *TCPConn) processACK(seg *Segment) {
	ack := seg.Ack
	if seqGT(ack, c.sndNxt) {
		// Acks something not yet sent: ignore (stale restore peer will
		// be corrected by retransmission).
		return
	}
	if seqGT(ack, c.sndUna) {
		acked := ack - c.sndUna
		c.sndUna = ack
		c.dupAcks = 0
		// Drop fully acknowledged segments, recycling the pooled
		// buffers of those sent exactly once: their single frame has
		// been consumed or dropped, so nothing can still reference the
		// bytes. A retransmitted segment may have a duplicate frame in
		// flight and its buffer is left to the GC.
		for c.segs.Len() > 0 && seqLE(c.segs.At(0).end(), ack) {
			if g := c.segs.Pop(); g.retx == 0 && g.pool != nil {
				c.stack.putSegBuf(g.pool)
			}
		}
		// RTT sample (Karn-filtered at transmit time).
		if c.sampleValid && seqLE(c.sampleSeq, ack) {
			c.updateRTT(c.stack.engine.Now().Sub(c.sampleAt))
			c.sampleValid = false
		}
		// Congestion window growth.
		if c.cwnd < c.ssthresh {
			c.cwnd += int(acked) // slow start
		} else {
			c.cwnd += maxInt(mss*mss/maxInt(c.cwnd, 1), 1)
		}
		if c.cwnd > sndBufLimit {
			c.cwnd = sndBufLimit
		}
		// Forward progress clears any retransmission backoff: the RTO
		// returns to the estimator's value, as in Linux.
		c.rto = c.computeRTO()
		c.sndWnd = uint32(seg.Window)
		if c.segs.Len() == 0 {
			c.stack.engine.Cancel(c.rtoTimer)
			c.rtoTimer = nil
		} else {
			c.resetRTO()
		}
		c.pumpRetransmits()
		// Our FIN acknowledged?
		if c.finSent && ack == c.sndNxt {
			switch c.state {
			case StateFinWait1:
				c.setState(StateFinWait2)
			case StateClosing:
				c.enterTimeWait()
			case StateLastAck:
				c.teardown(nil)
				return
			}
		}
		c.wake() // writable space opened
		c.trySend()
		return
	}
	// Duplicate ACK.
	c.sndWnd = uint32(seg.Window)
	if ack == c.sndUna && c.segs.Len() > 0 && seg.len() == 0 {
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit.
			g := c.segs.At(0)
			g.retx++
			c.Stats.FastRetransmits++
			c.Stats.Retransmits++
			c.stack.tr.Instant(c.stack.name, "tcp", "fast_retransmit",
				trace.Str("conn", c.traceName()),
				trace.Int("seq", int64(g.seq)))
			c.ssthresh = maxInt(c.inflightBytes()/2, 2*mss)
			c.cwnd = c.ssthresh
			c.sampleValid = false
			c.transmitSeg(g)
			c.resetRTO()
		}
	}
	if c.sndWnd > 0 {
		c.trySend() // window may have opened
	}
}

// processData handles payload bytes and FIN sequencing, with out-of-order
// reassembly and cumulative ACK generation.
func (c *TCPConn) processData(seg *Segment) {
	seq := seg.Seq
	n := seg.len()
	fin := seg.Flags.Has(FlagFIN)

	// Trim data the receiver already has.
	skip := 0
	if seqLT(seq, c.rcvNxt) {
		old := c.rcvNxt - seq
		if old >= uint32(n) {
			if !(fin && seq+uint32(n) == c.rcvNxt) {
				// Entirely old: re-ACK and stop (keeps dup-data loops
				// from growing the queue after restore replays).
				c.sendControl(FlagACK, c.sndNxt, c.rcvNxt)
				return
			}
			skip = n
		} else {
			skip = int(old)
		}
		seq = c.rcvNxt
	}

	if seq == c.rcvNxt {
		c.ingest(&seg.payload, skip, fin)
		c.drainOOO()
	} else {
		// Out of order: queue and send a duplicate ACK.
		c.insertOOO(oooSeg{seq: seq, payload: seg.payload, fin: fin})
	}
	c.sendControl(FlagACK, c.sndNxt, c.rcvNxt)
	c.wake()
}

// ingest appends in-order data (and FIN) at rcvNxt, past its first skip
// bytes. Flagged runs are queued by reference; the rest are copied,
// because unflagged bytes live in the sender's pooled segment buffer,
// which the ack hands back to its pool before the application reads
// them.
func (c *TCPConn) ingest(p *payload, skip int, fin bool) {
	p.each(func(r span) {
		b := r.b
		if skip >= len(b) {
			skip -= len(b)
			return
		}
		b, skip = b[skip:], 0
		c.Stats.BytesReceived += uint64(len(b))
		if r.ref {
			c.rcvQueue.writeRef(b)
		} else {
			c.rcvQueue.write(b)
		}
		c.rcvNxt += uint32(len(b))
	})
	if fin && !c.rcvClosed {
		c.rcvNxt++
		c.rcvClosed = true
		switch c.state {
		case StateEstablished:
			c.setState(StateCloseWait)
		case StateFinWait1:
			// Their FIN before our FIN's ACK: simultaneous close.
			c.setState(StateClosing)
		case StateFinWait2:
			c.enterTimeWait()
		}
	}
}

// insertOOO stores an out-of-order segment, keeping the list seq-sorted.
func (c *TCPConn) insertOOO(s oooSeg) {
	const maxOOO = 256
	if len(c.ooo) >= maxOOO {
		return
	}
	for _, e := range c.ooo {
		if e.seq == s.seq {
			return // duplicate
		}
	}
	c.ooo = append(c.ooo, s)
	for i := len(c.ooo) - 1; i > 0 && seqLT(c.ooo[i].seq, c.ooo[i-1].seq); i-- {
		c.ooo[i], c.ooo[i-1] = c.ooo[i-1], c.ooo[i]
	}
}

// drainOOO ingests any queued segments now contiguous with rcvNxt.
func (c *TCPConn) drainOOO() {
	for len(c.ooo) > 0 {
		s := c.ooo[0]
		if seqGT(s.seq, c.rcvNxt) {
			return
		}
		// Clear the slot: a flagged segment's data is a slice of the
		// sender's store bytes, which the array would otherwise pin.
		c.ooo[0] = oooSeg{}
		c.ooo = c.ooo[1:]
		skip := 0
		if seqLT(s.seq, c.rcvNxt) {
			n := s.len()
			if skip = int(c.rcvNxt - s.seq); skip >= n {
				if !s.fin {
					continue
				}
				skip = n
			}
		}
		c.ingest(&s.payload, skip, s.fin)
	}
}

// enterTimeWait parks the connection for 2*MSL, then frees the tuple.
func (c *TCPConn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.stack.engine.Cancel(c.rtoTimer)
	c.rtoTimer = nil
	c.twTimer = c.stack.engine.Schedule(2*msl, func() { c.teardown(nil) })
	c.wake()
}
