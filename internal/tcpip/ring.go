package tcpip

// Ring is a FIFO byte queue over one circular buffer. Write copies bytes
// in at the tail; Read, Peek and Discard work at the head. The buffer
// grows (by doubling, never shrinks) only when a Write does not fit, so
// a queue that fills and drains repeatedly — a TCP send or receive
// buffer — settles at its high-water capacity and allocates nothing
// afterwards. The zero value is an empty ring.
type Ring struct {
	buf  []byte // len(buf) is the capacity, always zero or a power of two
	head int    // index of the oldest byte
	n    int    // bytes queued
}

// ringMinCap is the first allocation; most control connections never
// queue more than one small frame.
const ringMinCap = 512

// Len returns the number of queued bytes.
func (r *Ring) Len() int { return r.n }

// Write appends p to the queue, growing the buffer if needed.
func (r *Ring) Write(p []byte) {
	if len(p) == 0 {
		return
	}
	if r.n+len(p) > len(r.buf) {
		r.grow(r.n + len(p))
	}
	tail := (r.head + r.n) & (len(r.buf) - 1)
	k := copy(r.buf[tail:], p)
	copy(r.buf, p[k:])
	r.n += len(p)
}

// grow reallocates to the next power of two holding need bytes,
// linearising the queued bytes at the front of the new buffer.
func (r *Ring) grow(need int) {
	c := len(r.buf)
	if c == 0 {
		c = ringMinCap
	}
	for c < need {
		c <<= 1
	}
	nb := make([]byte, c)
	r.Peek(nb)
	r.buf, r.head = nb, 0
}

// Peek copies up to len(p) bytes from the head into p without consuming
// them and returns the count.
func (r *Ring) Peek(p []byte) int {
	n := min(len(p), r.n)
	if n == 0 {
		return 0
	}
	k := copy(p[:n], r.buf[r.head:])
	copy(p[k:n], r.buf)
	return n
}

// Read copies up to len(p) bytes from the head into p, consumes them,
// and returns the count.
func (r *Ring) Read(p []byte) int {
	n := r.Peek(p)
	r.Discard(n)
	return n
}

// Discard drops up to n bytes from the head and returns how many it
// dropped.
func (r *Ring) Discard(n int) int {
	n = min(n, r.n)
	if n == 0 {
		return 0
	}
	r.n -= n
	if r.n == 0 {
		r.head = 0 // empty: start the next burst unwrapped
	} else {
		r.head = (r.head + n) & (len(r.buf) - 1)
	}
	return n
}

// AppendTo appends the queued bytes, oldest first, to dst without
// consuming them — the linear form a checkpoint image carries.
func (r *Ring) AppendTo(dst []byte) []byte {
	if r.n == 0 {
		return dst
	}
	end := r.head + r.n
	if end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:end-len(r.buf)]...)
}
