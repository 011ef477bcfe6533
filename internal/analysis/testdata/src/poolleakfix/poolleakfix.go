// Package poolleakfix is a cruzvet fixture for the poolleak analyzer:
// pooled buffers that miss their put on an early-return or loop-skip
// path, double puts, use-after-put, wrong-pool puts, and the shapes
// that must stay silent — deferred puts, escapes into a queue, content
// operations, and puts performed by a (transitively summarized)
// helper.
package poolleakfix

import "encoding/binary"

// conn mimics the ctl frame pool / tcpip segment free list by method
// name; poolleak matches the get/put convention, not a package.
type conn struct {
	fpool [][]byte
	spool [][]byte
}

func (c *conn) getFrameBuf(n int) []byte { return make([]byte, n) }
func (c *conn) putFrameBuf(b []byte)     { c.fpool = append(c.fpool, b[:0]) }
func (c *conn) getSegBuf(n int) []byte   { return make([]byte, n) }
func (c *conn) putSegBuf(b []byte)       { c.spool = append(c.spool, b[:0]) }

// release and release2 are the interprocedural summary cases: passing
// a buffer to them must count as the put itself, one and two helper
// levels deep.
func (c *conn) release(b []byte)  { c.putFrameBuf(b) }
func (c *conn) release2(b []byte) { c.release(b) }

func (c *conn) LeakEarlyReturn(bad bool) {
	b := c.getFrameBuf(64) // want `buffer b from .*getFrameBuf is not returned to the frame pool on every return path`
	if bad {
		return
	}
	c.putFrameBuf(b)
}

// LeakLoop is the relay-loop shape from PR 7: the continue path skips
// the put every other iteration.
func (c *conn) LeakLoop(n int) {
	for i := 0; i < n; i++ {
		b := c.getSegBuf(1460) // want `buffer b from .*getSegBuf is not returned to the seg pool`
		if i%2 == 0 {
			continue
		}
		c.putSegBuf(b)
	}
}

func (c *conn) Discard() {
	c.getFrameBuf(8) // want `frame pool buffer discarded`
}

func (c *conn) DiscardBlank() {
	_ = c.getSegBuf(8) // want `seg pool buffer discarded`
}

func (c *conn) DoublePut() {
	b := c.getFrameBuf(8)
	c.putFrameBuf(b)
	c.putFrameBuf(b) // want `buffer b returned to the frame pool twice`
}

func (c *conn) UseAfterPut() byte {
	b := c.getFrameBuf(8)
	c.putFrameBuf(b)
	return b[0] // want `buffer b used after being returned to the frame pool`
}

func (c *conn) WrongPool() {
	b := c.getFrameBuf(8)
	c.putSegBuf(b) // want `buffer b from the frame pool is returned to the seg pool`
}

// OkBothBranches puts on every path: clean.
func (c *conn) OkBothBranches(x bool) {
	b := c.getFrameBuf(16)
	if x {
		c.putFrameBuf(b)
		return
	}
	c.putFrameBuf(b)
}

// OkDeferred covers every return path by defer: clean.
func (c *conn) OkDeferred(x bool) {
	b := c.getFrameBuf(16)
	defer c.putFrameBuf(b)
	if x {
		return
	}
	b[0] = 1
}

// LeakDeferInOneBranch defers the put on one branch only: the other
// path returns with the buffer still out.
func (c *conn) LeakDeferInOneBranch(keep bool) {
	b := c.getFrameBuf(16) // want `buffer b from .*getFrameBuf is not returned to the frame pool on every return path`
	if keep {
		defer c.putFrameBuf(b)
	}
	b[0] = 1
}

// frame mimics ctl's wframe: buffers queued for a later drain are the
// writer side's responsibility, so the acquisition must stay silent.
type frame struct{ buf []byte }

func (c *conn) OkEscapes() *frame {
	b := c.getFrameBuf(8)
	return &frame{buf: b}
}

// OkViaHelper releases through summarized helpers on both paths: clean.
func (c *conn) OkViaHelper(x bool) {
	b := c.getFrameBuf(8)
	if x {
		c.release(b)
		return
	}
	c.release2(b)
}

// OkContent exercises the content-operation exemptions: binary writes,
// slicing, copy, len — none of which retain the buffer.
func (c *conn) OkContent(payload []byte) {
	b := c.getFrameBuf(len(payload) + 8)
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[8:], payload)
	c.putFrameBuf(b)
}

// Receive callbacks: a frame handed to func(*conn, []byte) belongs to
// the callback and never came from the pool. Keeping it, reading it and
// copying out of it are all fine; putting it "back" is not, directly or
// through a releasing helper.

func onFrameRecycles(c *conn, payload []byte) {
	_ = payload[0]
	c.putFrameBuf(payload) // want `received frame payload belongs to the receiver and never came from the frame pool`
}

func onFrameRecyclesViaHelper(c *conn, payload []byte) {
	c.release2(payload) // want `received frame payload belongs to the receiver`
}

var kept [][]byte

// OkOnFrameKeeps retains the frame: exactly what the ownership rule
// allows.
func OkOnFrameKeeps(c *conn, payload []byte) {
	kept = append(kept, payload)
}

func (c *conn) install() func(*conn, []byte) {
	return func(peer *conn, payload []byte) {
		peer.putFrameBuf(payload[:0]) // want `received frame payload belongs to the receiver`
	}
}

// OkHelperShape has a pool owner as receiver, not as first parameter:
// it is a releasing helper like release above, not a receive callback.
func (c *conn) OkHelperShape(n int, b []byte) { c.putFrameBuf(b) }
