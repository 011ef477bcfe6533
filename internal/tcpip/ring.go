package tcpip

// Ring is a FIFO byte queue over one circular buffer. Write copies bytes
// in at the tail; Peek and Discard work at the head. The buffer grows
// (by doubling, never shrinks) only when a Write does not fit, so a
// queue that fills and drains repeatedly — a TCP send or receive buffer
// — settles at its high-water capacity and allocates nothing
// afterwards. Nothing outside the ring ever references its buffer: a
// reader gets copies. The zero value is an empty ring.
type Ring struct {
	buf  []byte // len(buf) is the capacity, always zero or a power of two
	head int    // index of the oldest unread byte
	n    int    // unread bytes
}

// ringMinCap is the first allocation; most control connections never
// queue more than one small frame.
const ringMinCap = 512

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
// linearising the unread bytes at the front of the new buffer.
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

// span returns the n unread bytes from offset off as at most two
// slices of the buffer, the second non-empty only when they wrap.
func (r *Ring) span(off, n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	start := (r.head + off) & (len(r.buf) - 1)
	if end := start + n; end <= len(r.buf) {
		return r.buf[start:end], nil
	}
	return r.buf[start:], r.buf[:start+n-len(r.buf)]
}

// Peek copies up to len(p) bytes from the head into p without consuming
// them and returns the count.
func (r *Ring) Peek(p []byte) int {
	n := min(len(p), r.n)
	a, b := r.span(0, n)
	copy(p[copy(p, a):], b)
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
