package tcpip

import (
	"errors"
	"fmt"

	"cruz/internal/trace"
)

// This file implements the paper's central capability (§4.1): saving and
// restoring the state of live TCP connections as part of a checkpoint.
//
// The original Linux implementation walks kernel socket structures under
// the network-stack spin locks. The paper notes that "porting effort can
// be minimized if OSes can be extended with a small set of new interfaces
// to provide high-level access to internal network state" (citing the
// 'Unveiling the transport' HotNets proposal). CaptureState/RestoreTCP
// *are* that proposed interface for our simulated stack. The simulation is
// single-threaded, so the capture is trivially atomic — the moral
// equivalent of holding the spin locks for the duration of the copy.

// SavedSegment is one send-buffer packet. Boundaries must be preserved
// across checkpoint-restart "because the Linux TCP stack expects ACK
// sequence numbers to correspond to packet boundaries" (§4.1); our stack
// keeps the same discipline.
type SavedSegment struct {
	Data []byte
	FIN  bool
}

// TCPSavedState is the serializable image of one TCP connection. Per
// §4.1, the sequence numbers are saved in the *adjusted* form: the saved
// connection reflects an empty receive buffer whose contents were already
// delivered to the application, and an empty send buffer whose contents
// were never issued to the OS. The buffer contents travel alongside in
// SendSegments/SendPending/RecvData and are replayed at restore.
type TCPSavedState struct {
	Tuple FourTuple
	State State

	ISS, IRS uint32
	// SndUna is unack_nxt; the saved snd_nxt equals it (empty send
	// buffer adjustment).
	SndUna uint32
	// RcvNxt is unchanged by the adjustment: received data was already
	// acknowledged, and is treated as delivered to the application.
	RcvNxt uint32
	// SndWnd is the peer's last advertised window, used to prime the
	// restored sender.
	SndWnd uint32

	// SendSegments is the packetized unacknowledged data in
	// [unack_nxt, snd_nxt), boundaries preserved. SendPending is data
	// accepted from the application but not yet packetized.
	SendSegments []SavedSegment
	SendPending  []byte

	// RecvData is the receive-side application byte stream not yet read
	// by the application: any previously restored alternate-buffer bytes
	// concatenated with the live receive queue (§4.1: "data from both
	// buffers are concatenated and saved in the checkpoint").
	RecvData []byte

	// Socket options.
	NoDelay bool
	Cork    bool

	// Close-sequence progress.
	FinQueued bool
	RcvClosed bool
}

// TCPListenerState is the serializable image of a listening socket.
type TCPListenerState struct {
	Local   AddrPort
	Backlog int
}

// ErrNotCheckpointable is returned when a connection is in a state the
// checkpoint does not support (mid-handshake or already dead). Pods
// checkpoint such sockets as closed; clients see a reset and retry, which
// is also what the paper's implementation yields for embryonic
// connections.
var ErrNotCheckpointable = errors.New("tcpip: connection not in a checkpointable state")

// CaptureState returns the connection's saved image. The operation is
// non-destructive: the live connection continues unchanged, exactly as
// the paper requires ("checkpointing should be a non-destructive
// operation"). Out-of-order segments queued for reassembly are *not*
// captured: they are indistinguishable from in-flight packets, which the
// protocol deliberately drops and lets TCP retransmit.
func (c *TCPConn) CaptureState() (*TCPSavedState, error) {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateFinWait2, StateClosing, StateLastAck:
	default:
		return nil, fmt.Errorf("%w: %v", ErrNotCheckpointable, c.state)
	}
	st := &TCPSavedState{
		Tuple:     c.tuple,
		State:     c.state,
		ISS:       c.iss,
		IRS:       c.irs,
		SndUna:    c.sndUna,
		RcvNxt:    c.rcvNxt,
		SndWnd:    c.sndWnd,
		NoDelay:   c.noDelay,
		Cork:      c.cork,
		FinQueued: c.finQueued,
		RcvClosed: c.rcvClosed,
	}
	for i := 0; i < c.segs.Len(); i++ {
		g := c.segs.At(i)
		data := make([]byte, 0, g.len())
		g.each(func(r span) { data = append(data, r.b...) })
		st.SendSegments = append(st.SendSegments, SavedSegment{Data: data, FIN: g.fin})
	}
	// The queues and segments linearise into the image: saved buffers
	// carry no trace of where in its ring a queue happened to sit, nor of
	// which runs were copied and which referenced, nor of the runs a
	// segment spans.
	st.SendPending = c.pending.appendTo(nil)
	// MSG_PEEK semantics: read without consuming. Alternate buffer (from
	// an earlier restore) concatenates with the live queue.
	st.RecvData = make([]byte, 0, len(c.altQueue)+c.rcvQueue.Len())
	st.RecvData = append(st.RecvData, c.altQueue...)
	st.RecvData = c.rcvQueue.appendTo(st.RecvData)
	return st, nil
}

// RestoreTCP recreates a connection from its saved image on this stack.
// The interface owning the local address (normally the pod's migrated
// VIF) must already exist.
//
// The restore follows §4.1: the socket is created with the adjusted
// sequence state (empty buffers); the saved send-buffer data is then
// re-issued one send per saved packet so boundaries are preserved, with
// Nagle and CORK forced off for the duration; and the saved receive data
// is parked in the socket's alternate buffer, which the interposed
// receive path drains before live data.
//
// Restored segments are transmitted immediately — if the coordination
// protocol has communication disabled (as it must; §5), the packet filter
// silently drops them and the armed retransmission timer recovers after
// communication is re-enabled. The restored RTO starts at the minimum so
// recovery is prompt.
func (s *Stack) RestoreTCP(st *TCPSavedState) (*TCPConn, error) {
	if s.ifaceByIP(st.Tuple.Local.Addr) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, st.Tuple.Local.Addr)
	}
	if _, ok := s.conns[st.Tuple]; ok {
		return nil, fmt.Errorf("%w: %s", ErrConnExists, st.Tuple)
	}
	c := &TCPConn{
		stack:             s,
		tuple:             st.Tuple,
		state:             st.State,
		iss:               st.ISS,
		irs:               st.IRS,
		sndUna:            st.SndUna,
		sndNxt:            st.SndUna, // empty-send-buffer adjustment
		sndWnd:            st.SndWnd,
		rcvNxt:            st.RcvNxt,
		rcvClosed:         st.RcvClosed,
		noDelay:           st.NoDelay,
		cork:              st.Cork,
		finQueued:         st.FinQueued,
		cwnd:              initialCwnd * mss,
		ssthresh:          rcvBufLimit,
		rto:               rtoMin,
		lastWndAdvertised: rcvBufLimit,
	}
	c.onRTOFn = c.onRTO
	c.altQueue = append([]byte(nil), st.RecvData...)
	s.conns[st.Tuple] = c

	// Re-issue the send buffer, one send per saved packet, Nagle/CORK
	// off so boundaries hold.
	savedNoDelay, savedCork := c.noDelay, c.cork
	c.noDelay, c.cork = true, false
	for _, sg := range st.SendSegments {
		g := c.segs.Push(inflightSeg{seq: c.sndNxt, payload: payload{Data: append([]byte(nil), sg.Data...), ref: true}, fin: sg.FIN})
		c.sndNxt += g.seqLen()
		if sg.FIN {
			c.finSent = true
		}
		c.transmitSeg(g)
	}
	c.noDelay, c.cork = savedNoDelay, savedCork
	if len(st.SendPending) > 0 {
		c.pending.write(st.SendPending)
		c.trySend()
	}
	if c.segs.Len() > 0 {
		c.armRTO()
	}
	// A connection whose close was in progress but whose FIN was already
	// acknowledged has nothing in flight; reconstruct finSent from the
	// state so the machine can finish the close.
	if st.FinQueued && len(st.SendSegments) == 0 {
		switch st.State {
		case StateFinWait2, StateClosing:
			c.finSent = true
		}
	}
	return c, nil
}

// CaptureState returns the listener's saved image.
func (l *TCPListener) CaptureState() *TCPListenerState {
	return &TCPListenerState{Local: l.local, Backlog: l.backlog}
}

// RestoreListener recreates a listening socket from its saved image.
// Half-open connections at checkpoint time are not restored; clients'
// SYN retransmissions re-establish them.
func (s *Stack) RestoreListener(st *TCPListenerState) (*TCPListener, error) {
	return s.ListenTCP(st.Local, st.Backlog)
}

// Conns returns the stack's live TCP connections, for diagnostics and
// tests. The slice is freshly allocated; order is unspecified.
func (s *Stack) Conns() []*TCPConn {
	out := make([]*TCPConn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	return out
}

// StreamProgress returns the application-level byte-stream positions of
// this endpoint: sent is every byte the application has successfully
// handed to the socket (packetized or still pending), rcvd is every byte
// received in order (whether or not the application has read it,
// including restored alternate-buffer bytes). Flushing checkpoint
// protocols (CoCheck/MPVM-style, implemented in internal/flush) exchange
// these positions as channel markers.
func (c *TCPConn) StreamProgress() (sent, rcvd uint64) {
	if c.state == StateListen || c.state == StateClosed && c.iss == 0 {
		return 0, 0
	}
	sent = uint64(c.sndNxt - c.iss - 1)
	if c.finSent {
		sent-- // the FIN occupies one sequence number
	}
	sent += uint64(c.pending.Len())
	rcvd = uint64(c.rcvNxt - c.irs - 1)
	if c.rcvClosed {
		rcvd--
	}
	return sent, rcvd
}

// DrainToAlt moves the contents of the live receive queue into the
// alternate (library) buffer, reopening the advertised window, and
// returns the number of bytes moved. Stream order is preserved: the
// application reads the alternate buffer before live data. Flushing
// checkpoint protocols use this to drain in-flight channel data while
// the application is stopped — the moral equivalent of CoCheck's
// library-level message buffer.
func (c *TCPConn) DrainToAlt() int {
	n := c.rcvQueue.Len()
	if n == 0 {
		return 0
	}
	c.altQueue = c.rcvQueue.appendTo(c.altQueue)
	c.rcvQueue.discard(n)
	c.stack.tr.Instant(c.stack.name, "tcp", "drain",
		trace.Str("conn", c.traceName()),
		trace.Int("bytes", int64(n)),
		trace.Int("alt_total", int64(len(c.altQueue))))
	c.maybeSendWindowUpdate(n)
	return n
}
