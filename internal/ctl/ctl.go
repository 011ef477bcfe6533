// Package ctl provides the control-plane plumbing shared by the Cruz
// coordinator/agents and the flushing baseline: the Endpoint each daemon
// dials, accepts and frames messages through, length-prefixed framing over
// simulated TCP connections, a serializer modeling one lane of a daemon's
// CPU, and the op-lifecycle state machine (Table/Op) every operation runs on.
package ctl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Frame layout: a 4-byte big-endian payload length, then the sender's
// 8-byte op id and 8-byte parent span id — the distributed trace context,
// zero when the frame belongs to no traced operation — then the payload.
// The context rides every frame unconditionally so frame sizes, and the
// TCP timing they induce, are identical whether tracing is on or off.
const frameHeader = 4 + 16

// MaxFrame bounds the payload length a frame header may claim. Pump
// keeps a frame's bytes until the frame is whole, so the bound is what
// keeps a corrupt or hostile length from pinning gigabytes.
const MaxFrame = 1 << 30

// ErrFrameTooLarge is reported through the error callback when a frame
// header claims more than MaxFrame bytes; the connection is aborted.
var ErrFrameTooLarge = errors.New("ctl: frame length exceeds MaxFrame")

// Conn frames byte payloads over a TCP connection: the fixed header
// above followed by the payload. Incoming frames are delivered whole to
// the frame callback, as a reader of the pieces they arrived in (see Pump
// and dispatch). Writes
// are backpressure-aware: frames that do not fit in the send buffer
// (bulk data such as checkpoint replication) are queued and drained as
// TCP acknowledgments open window space, so a full buffer slows the
// sender down instead of failing the protocol.
type Conn struct {
	tc       *tcpip.TCPConn
	wqueue   [numTiers]sim.Queue[wframe] // per-tier output queues; a head may be partially written
	pacer    *Pacer                      // paces TierBackground frames; nil = unpaced
	onFrame  func(*Conn, PieceReader)
	onErr    func(*Conn, error)
	frameCtx trace.SpanContext

	// Receive state. Pump reads the fixed header into hdr, then takes
	// the payload from TCP as pieces (RecvRef): the sender's own bytes
	// for what it sent by reference, and for what arrived by copy,
	// slices of copied — stage, reused from frame to frame, unless a
	// frame's copied bytes outgrow stageMax, and then a buffer of the
	// frame's own.
	hdr    [frameHeader]byte
	hdrN   int      // header bytes received so far; frameHeader while the payload arrives
	pieces [][]byte // the payload received so far, in order
	copied []byte   // the frame's copied bytes so far
	owned  bool     // copied is the frame's own buffer, not stage
	stage  []byte
	need   int // payload bytes still to come
	// During the frame callback, loaned is the dispatched frame's piece
	// list and lent its copied bytes, while they lie in the stage; both
	// are nil once a reader keeps a slice of them (keep), and when the
	// frame copied nothing or into a buffer of its own.
	loaned [][]byte
	lent   []byte

	// fpool recycles small frame buffers: SendParts draws from it and
	// drain returns a buffer once its frame is fully inside the TCP send
	// buffer (whose Send copies). Copied payloads above framePoolBufCap
	// draw from the large tier lpool instead.
	fpool [][]byte
	// lpool is the bulk tier: a handful of recycled large buffers,
	// best-fit matched, with capacities rounded to powers of two so a
	// stream of similar-size copied bulk frames reuses one buffer
	// instead of allocating megabytes per frame. Bulk that is immutable
	// at the sender (store blobs and chunks) bypasses it: SendParts
	// hands such parts to TCP by reference.
	lpool [][]byte

	// Sent and Received count frames, for message-complexity accounting.
	Sent, Received int
	// Blocked counts the times a send had to wait for buffer space —
	// the backpressure events a hard-error path would have failed on.
	Blocked int
	// Pool counts frame-buffer recycling on the send path.
	Pool PoolStats
}

// wframe is one queued output frame: a pooled buffer holding the frame
// header and the copied head of the payload, then the caller's parts,
// which TCP queues by reference. idx and pos say how far the
// frame has entered the TCP send buffer: piece idx (0 is buf, i is
// parts[i-1]) from byte pos. Keeping the position separate (rather than
// re-slicing) preserves the original buffer for recycling.
type wframe struct {
	buf   []byte
	parts [][]byte
	size  int // len(buf) plus every part
	idx   int
	pos   int
	sent  int // bytes already inside the TCP send buffer
	// admitted marks a background frame whose bytes already cleared the
	// pacer, so a send retry after ErrWouldBlock is not charged twice.
	admitted bool
}

// piece returns the unsent remainder of the piece the frame is at.
func (f *wframe) piece() []byte {
	if f.idx == 0 {
		return f.buf[f.pos:]
	}
	return f.parts[f.idx-1][f.pos:]
}

// Tier classifies a frame's scheduling priority on the send path.
// Lower tiers drain first at every frame boundary, so queued durability
// bulk never delays a control message or a migration round that arrives
// behind it — and TierBackground frames additionally pass through the
// connection's Pacer (when one is attached), so background durability
// traffic is rate-limited off the link foreground flows share.
type Tier int

const (
	// TierForeground is the default: control messages and anything on a
	// foreground critical path (freeze windows, restarts, commits).
	TierForeground Tier = iota
	// TierStream carries pre-copy / migration round data: bulk, but
	// latency-sensitive — it bounds downtime and round convergence.
	TierStream
	// TierBackground carries durability traffic (replication and
	// erasure-coded shard distribution): bulk with no deadline. It
	// yields to both other tiers and is token-bucket paced.
	TierBackground

	numTiers = 3
)

// Frame-pool sizing: control messages are small and pool densely; bulk
// frames (checkpoint replication, migration rounds) are megabytes, so a
// few recycled buffers cover a whole stream.
const (
	framePoolBufCap = 4096
	framePoolMax    = 16
	largePoolMax    = 4
)

// PoolStats counts frame-buffer pool traffic, for the bulk-path
// allocation ablation.
type PoolStats struct {
	Hits   uint64 // frames served from a recycled buffer
	Misses uint64 // frames that had to allocate
}

// getFrameBuf returns a length-n frame buffer, pooled when small and
// best-fit recycled from the bulk tier when large.
func (c *Conn) getFrameBuf(n int) []byte {
	if n <= framePoolBufCap {
		if last := len(c.fpool) - 1; last >= 0 {
			b := c.fpool[last]
			c.fpool = c.fpool[:last]
			c.Pool.Hits++
			return b[:n]
		}
		c.Pool.Misses++
		return make([]byte, n, framePoolBufCap)
	}
	best := -1
	for i, b := range c.lpool {
		if cap(b) >= n && (best < 0 || cap(b) < cap(c.lpool[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := c.lpool[best]
		c.lpool[best] = c.lpool[len(c.lpool)-1]
		c.lpool = c.lpool[:len(c.lpool)-1]
		c.Pool.Hits++
		return b[:n]
	}
	// Round the capacity up to a power of two: the next bulk frame in
	// the stream is rarely identical in size, but it fits a recycled
	// buffer at most 2x larger.
	capN := framePoolBufCap
	for capN < n {
		capN <<= 1
	}
	c.Pool.Misses++
	return make([]byte, n, capN)
}

// putFrameBuf recycles a fully-sent frame buffer into its tier.
func (c *Conn) putFrameBuf(b []byte) {
	switch {
	case cap(b) == framePoolBufCap:
		if len(c.fpool) < framePoolMax {
			c.fpool = append(c.fpool, b[:0])
		}
	case cap(b) > framePoolBufCap:
		if len(c.lpool) < largePoolMax {
			c.lpool = append(c.lpool, b[:0])
		}
	}
}

// NewConn wraps tc. It takes over the connection's notify callback.
// onFrame gets each payload whole, to keep but never write: the frame's
// one piece, its copied bytes moved out of the stage when they are that
// piece, and otherwise the join of its pieces.
func NewConn(tc *tcpip.TCPConn, onFrame func(*Conn, []byte), onErr func(*Conn, error)) *Conn {
	return newConn(tc, func(c *Conn, r PieceReader) { onFrame(c, r.Next(r.Len())) }, onErr)
}

// newConn wraps tc, delivering each payload to onFrame as a reader of its
// pieces: slices of the sender's bytes for what it sent by reference
// (SendParts' parts), which nobody may write, and for what arrived by
// copy, slices of the stage, lent for the length of the call (dispatch).
func newConn(tc *tcpip.TCPConn, onFrame func(*Conn, PieceReader), onErr func(*Conn, error)) *Conn {
	c := &Conn{tc: tc, onFrame: onFrame, onErr: onErr}
	tc.SetNotify(c.Pump)
	return c
}

// TCP returns the underlying connection.
func (c *Conn) TCP() *tcpip.TCPConn { return c.tc }

// Send transmits one frame with a zero trace context. Frames queue until
// the handshake finishes and while the send buffer is full; Send only
// errors on a dead connection.
func (c *Conn) Send(payload []byte) error {
	return c.SendCtx(payload, trace.SpanContext{})
}

// SendCtx transmits one frame stamped with the trace context ctx, which
// the receiver surfaces through FrameCtx during frame dispatch.
func (c *Conn) SendCtx(payload []byte, ctx trace.SpanContext) error {
	return c.SendTierCtx(payload, ctx, TierForeground)
}

// SendTierCtx transmits one frame on a specific priority tier. Frames on
// lower tiers overtake queued higher-tier frames at frame boundaries;
// TierBackground frames are additionally paced when a Pacer is attached.
// The payload is copied: the caller may reuse it as soon as the call
// returns.
func (c *Conn) SendTierCtx(payload []byte, ctx trace.SpanContext, tier Tier) error {
	return c.SendParts(payload, nil, ctx, tier)
}

// SendParts transmits one frame whose payload is head followed by every
// part, in order. head is copied like SendTierCtx's payload. The parts
// are not: TCP queues, packetizes and delivers them as slices of the
// caller's (SendRef), and the receiver may keep referencing them for
// good, so they must never change — the contract store blobs, chunks and
// manifests, immutable once planned, meet for free. A part byte crosses
// the connection uncopied: an endpoint's codec gets it as a slice of the
// sender's part.
func (c *Conn) SendParts(head []byte, parts [][]byte, ctx trace.SpanContext, tier Tier) error {
	if err := c.tc.Err(); err != nil {
		return fmt.Errorf("ctl: send on dead conn: %w", err)
	}
	size := len(head)
	for _, p := range parts {
		size += len(p)
	}
	if size > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	buf := c.getFrameBuf(frameHeader + len(head))
	binary.BigEndian.PutUint32(buf, uint32(size))
	binary.BigEndian.PutUint64(buf[4:], uint64(ctx.Op))
	binary.BigEndian.PutUint64(buf[12:], uint64(ctx.Span))
	copy(buf[frameHeader:], head)
	c.Sent++
	c.wqueue[tier].Push(wframe{buf: buf, parts: parts, size: frameHeader + size})
	if c.tc.Established() {
		c.drain()
	}
	return nil
}

// SetPacer attaches the node's background-traffic pacer to this
// connection. Only TierBackground frames consult it.
func (c *Conn) SetPacer(p *Pacer) { c.pacer = p }

// QueuedBytes returns the bytes waiting for send-buffer space.
func (c *Conn) QueuedBytes() int {
	n := 0
	for t := range c.wqueue {
		for i := 0; i < c.wqueue[t].Len(); i++ {
			f := c.wqueue[t].At(i)
			n += f.size - f.sent
		}
	}
	return n
}

func (c *Conn) queued() bool {
	for t := range c.wqueue {
		if c.wqueue[t].Len() > 0 {
			return true
		}
	}
	return false
}

// nextTier picks the queue to drain from. A partially-written frame must
// finish first (frames are atomic on the wire); otherwise the lowest
// tier with queued frames wins, and a background head additionally needs
// pacer tokens to start.
func (c *Conn) nextTier() (Tier, bool) {
	for t := Tier(0); t < numTiers; t++ {
		if c.wqueue[t].Len() > 0 && c.wqueue[t].At(0).sent > 0 {
			return t, true
		}
	}
	for t := Tier(0); t < numTiers; t++ {
		if c.wqueue[t].Len() == 0 {
			continue
		}
		f := c.wqueue[t].At(0)
		if t == TierBackground && c.pacer != nil && !f.admitted {
			if !c.pacer.admit(c, int64(f.size)) {
				return 0, false
			}
			f.admitted = true
		}
		return t, true
	}
	return 0, false
}

// drain pushes queued frames into the TCP send buffer until it fills.
// The remainder goes out from Pump as acknowledgments free space. A
// frame's buffer went in through TCP's copying Send, so once the whole
// frame is in, the buffer is dead and returns to the pool.
func (c *Conn) drain() {
	for {
		t, ok := c.nextTier()
		if !ok {
			return
		}
		f := c.wqueue[t].At(0)
		if !c.sendFrame(f) {
			return
		}
		c.putFrameBuf(f.buf)
		c.wqueue[t].Pop() // drops the part references with the frame
	}
}

// sendFrame moves as much of f as fits into the TCP send buffer — the
// pooled buffer by copy, the parts by reference — and reports whether
// the whole frame is in. A frame of several pieces is sent corked, so
// TCP packetizes the pieces exactly as it would the one contiguous
// buffer they stand for: full segments flow as they form and the
// sub-MSS tail waits for the uncork at the end.
func (c *Conn) sendFrame(f *wframe) bool {
	if len(f.parts) > 0 {
		defer c.tc.SetCork(c.tc.Cork())
		c.tc.SetCork(true)
	}
	for f.idx <= len(f.parts) {
		p := f.piece()
		if len(p) == 0 {
			f.idx, f.pos = f.idx+1, 0
			continue
		}
		var n int
		var err error
		if f.idx == 0 {
			n, err = c.tc.Send(p)
		} else {
			n, err = c.tc.SendRef(p)
		}
		if err == tcpip.ErrWouldBlock {
			c.Blocked++
			return false
		}
		if err != nil {
			// Terminal errors surface through Pump's Err path.
			return false
		}
		f.pos += n
		f.sent += n
		if n < len(p) {
			c.Blocked++
			return false
		}
	}
	return true
}

// Pump drains readable bytes, dispatches complete frames, and flushes
// queued writes as window space opens. It is the connection's notify
// handler; wrappers that need their own notification chain may call it
// directly.
func (c *Conn) Pump() {
	if err := c.tc.Err(); err != nil {
		c.dropFrame()
		if c.onErr != nil {
			c.onErr(c, err)
		}
		return
	}
	if c.tc.Established() && c.queued() {
		c.drain()
	}
	// Recv and RecvRef report ErrWouldBlock once the receive buffer is
	// empty, which ends the loop with the frame in progress kept for the
	// next call, and EOF or the terminal error at end of stream, which
	// ends it for good.
	for {
		if c.hdrN < frameHeader {
			n, err := c.tc.Recv(c.hdr[c.hdrN:], false)
			if err != nil {
				return
			}
			if c.hdrN += n; c.hdrN < frameHeader {
				continue
			}
			size := binary.BigEndian.Uint32(c.hdr[:])
			if size > MaxFrame {
				// The stream cannot be resynchronised. Abort without
				// re-entering Pump, so the cause is reported once.
				c.tc.SetNotify(nil)
				c.tc.Abort()
				if c.onErr != nil {
					c.onErr(c, fmt.Errorf("%w: header claims %d bytes", ErrFrameTooLarge, size))
				}
				return
			}
			c.need = int(size)
			c.copied = c.stage[:0]
			if c.pieces == nil {
				c.pieces = make([][]byte, 0, piecesMin)
			}
		}
		for c.need > 0 {
			if len(c.pieces) == cap(c.pieces) {
				c.pieces = slices.Grow(c.pieces, 2+c.need/pieceBytes)
			}
			var n int
			var err error
			c.pieces, c.copied, n, err = c.tc.RecvRef(c.pieces, c.copied, c.need)
			if err != nil {
				if err != tcpip.ErrWouldBlock {
					c.dropFrame()
				}
				return
			}
			if n == 0 {
				c.grow()
			}
			c.need -= n
		}
		c.dispatch()
	}
}

// Piece-list sizing. A connection's list starts at piecesMin and is kept
// from frame to frame. A frame of pages or chunks comes in one piece per
// 4 KiB array, so a list that such a frame fills grows once for the rest
// of it — a piece per pieceBytes still to come, and two for a split — not
// by doubling up to it; a frame that arrived by copy is a piece or two,
// and never fills it.
const (
	piecesMin  = 16
	pieceBytes = 4 << 10
)

// Stage sizing. Copied bytes are heads — gob fields, hash lists, length
// tables — and small control frames, so a connection's stage settles at
// its largest head. It starts at what the frame could copy, between
// stageMin and stageFirst bytes, and doubles from there as a frame's
// copied bytes need, up to stageMax; a frame that copies more gets a
// buffer of its own.
const (
	stageMin   = 4 << 10
	stageFirst = 64 << 10
	stageMax   = 1 << 20
)

// grow makes room for more of the frame's copied bytes than copied can
// hold, moving the pieces that alias it. Below stageMax the stage grows;
// past it the frame gets a buffer of its own, sized for every byte still
// to come, so it grows no more.
func (c *Conn) grow() {
	used := len(c.copied)
	var nb []byte
	if cap(c.copied) < stageMax {
		size := max(2*cap(c.copied), stageMin, min(used+c.need, stageFirst))
		c.stage = make([]byte, used, min(size, stageMax))
		nb = c.stage
	} else {
		nb, c.owned = make([]byte, used, used+c.need), true
	}
	copy(nb, c.copied)
	repoint(c.pieces, c.copied, nb)
	c.copied = nb
}

// repoint moves the pieces that are slices of from — the copied ones,
// back to back from its start — to the same offsets of to.
func repoint(pieces [][]byte, from, to []byte) {
	off := 0
	for i, p := range pieces {
		if len(p) > 0 && off < len(from) && &p[0] == &from[off] {
			pieces[i] = to[off : off+len(p)]
			off += len(p)
		}
	}
}

// dispatch hands the whole frame to the frame callback, as a reader of
// its pieces. Copied bytes in the stage are lent to the callback, not
// copied: a frame whose reader keeps nothing of them — every head-only
// control message, whose decoder copies what it keeps — costs no buffer,
// and the first slice of them the reader keeps moves them all to a buffer
// of their own (keep), out of the next frame's way.
func (c *Conn) dispatch() {
	c.frameCtx = trace.SpanContext{
		Op:   trace.OpID(binary.BigEndian.Uint64(c.hdr[4:])),
		Span: trace.SpanID(binary.BigEndian.Uint64(c.hdr[12:])),
	}
	c.Received++
	// The callback may re-enter Pump (a handler that aborts the
	// connection), so the frame leaves the receive state before it runs.
	pieces := c.pieces
	if !c.owned && len(c.copied) > 0 {
		c.loaned, c.lent = pieces, c.copied
	}
	c.pieces, c.copied, c.owned, c.hdrN = nil, nil, false, 0
	r := NewPieceReader(pieces)
	r.lender = c
	c.onFrame(c, r)
	c.loaned, c.lent = nil, nil
	clear(pieces)
	if c.pieces == nil {
		c.pieces = pieces[:0]
	}
}

// lends reports whether p lies in the stage the dispatched frame's copied
// bytes are lent from: a piece there ends its capacity where the stage
// does, for Pump, grow and repoint never cap one.
func (c *Conn) lends(p []byte) bool {
	return c != nil && c.lent != nil && cap(p) > 0 &&
		&p[:cap(p)][cap(p)-1] == &c.lent[:cap(c.lent)][cap(c.lent)-1]
}

// keep ends the loan: the frame's copied bytes move out of the stage to a
// buffer of their own, at their exact size and without a zero-fill, and
// its pieces, which the callback's reader walks, follow them.
func (c *Conn) keep() {
	own := append([]byte(nil), c.lent...)
	repoint(c.loaned, c.lent, own)
	c.loaned, c.lent = nil, nil
}

// dropFrame lets go of a frame the stream ended under: its pieces alias
// the peer's bytes.
func (c *Conn) dropFrame() {
	clear(c.pieces)
	c.pieces, c.copied, c.owned, c.stage = nil, nil, false, nil
}

// FrameCtx returns the trace context of the most recently dispatched
// frame. It is meaningful only inside the OnFrame callback; handlers
// that defer work must capture it synchronously.
func (c *Conn) FrameCtx() trace.SpanContext { return c.frameCtx }

// Serializer models one lane of a daemon's CPU: queued work items
// execute in order, each occupying the lane for its cost. Fan-out of N
// messages therefore takes O(N) serial time — the origin of the per-node
// coordination-overhead slope in the paper's Fig. 5(b). The Cruz agent
// has two lanes, every other daemon one (DESIGN §5).
type Serializer struct {
	Engine *sim.Engine
	freeAt sim.Time
}

// Do schedules fn after cost of serialized daemon CPU time.
func (s *Serializer) Do(cost sim.Duration, fn func()) {
	start := s.Engine.Now()
	if s.freeAt > start {
		start = s.freeAt
	}
	s.freeAt = start.Add(cost)
	s.Engine.ScheduleAt(s.freeAt, fn)
}

// Inbox is a lane's queue of one kind of deferred work — messages to
// handle, or to send — that schedules no closure per item: Do pushes the
// item and schedules the one callback bound at construction, which pops
// the oldest item and hands it to the handler. This is exact because a
// Serializer's work fires in the order it was scheduled (see sim.Queue),
// so the k-th callback to fire pops the k-th item pushed.
type Inbox[T any] struct {
	lane *Serializer
	q    sim.Queue[T]
	next func()
}

// NewInbox returns an inbox on lane whose items go to handle.
func NewInbox[T any](lane *Serializer, handle func(T)) *Inbox[T] {
	b := &Inbox[T]{lane: lane}
	b.next = func() { handle(b.q.Pop()) }
	return b
}

// Do hands v to the handler after cost of serialized lane time.
func (b *Inbox[T]) Do(cost sim.Duration, v T) {
	b.q.Push(v)
	b.lane.Do(cost, b.next)
}
