package tcpip

import "cruz/internal/sim"

// byteQueue is a TCP connection's pending-send or receive buffer: a FIFO
// of runs, each either bytes copied into the queue's Ring or a reference
// to bytes the caller promised never to change (SendRef, and segments
// cut from such bytes). Referenced bytes go in and out without a copy;
// copied ones cost one copy in, as before. The run FIFO is recycled like
// the ring, so a queue in steady state allocates nothing.
type byteQueue struct {
	ring Ring           // the copied runs' bytes, oldest first
	runs sim.Queue[run] // every run, oldest first
	n    int            // bytes queued, over all runs
}

// run is n queued bytes: ref's, or the next n of the ring when ref is
// nil.
type run struct {
	ref []byte
	n   int
}

// Len returns the number of queued bytes.
func (q *byteQueue) Len() int { return q.n }

// write copies p in at the tail.
func (q *byteQueue) write(p []byte) {
	if len(p) == 0 {
		return
	}
	q.ring.Write(p)
	q.n += len(p)
	if last := q.last(); last != nil && last.ref == nil {
		last.n += len(p)
		return
	}
	q.runs.Push(run{n: len(p)})
}

// writeRef queues p by reference. When p continues the tail run's array
// where that run ends — the next window's worth of one part, handed over
// as acknowledgments free space — the two become one run, so the
// segments cut from it need no copy at the join.
func (q *byteQueue) writeRef(p []byte) {
	if len(p) == 0 {
		return
	}
	q.n += len(p)
	if last := q.last(); last != nil && last.ref != nil && continues(last.ref, p) {
		last.ref = last.ref[:len(last.ref)+len(p)]
		last.n += len(p)
		return
	}
	q.runs.Push(run{ref: p, n: len(p)})
}

// continues reports whether b starts where a ends, within a's capacity:
// a[:len(a)+len(b)] is then a followed by b. Segments and pieces keep
// the capacity of the array they were cut from for this test alone.
func continues(a, b []byte) bool {
	return cap(a)-len(a) >= len(b) && &a[:len(a)+1][len(a)] == &b[0]
}

// last returns the tail run, or nil.
func (q *byteQueue) last() *run {
	if q.runs.Len() == 0 {
		return nil
	}
	return q.runs.At(q.runs.Len() - 1)
}

// each calls fn on the first n queued bytes, oldest first, in the fewest
// slices the runs and the ring's wrap allow, without consuming them.
func (q *byteQueue) each(n int, fn func([]byte)) {
	off := 0 // ring offset of the next copied run
	for i := 0; n > 0; i++ {
		r := q.runs.At(i)
		k := min(n, r.n)
		if r.ref != nil {
			fn(r.ref[:k])
		} else {
			a, b := q.ring.span(off, k)
			fn(a)
			if len(b) > 0 {
				fn(b)
			}
			off += k
		}
		n -= k
	}
}

// peek copies up to len(p) bytes from the head into p without consuming
// them and returns the count.
func (q *byteQueue) peek(p []byte) int {
	n := min(len(p), q.n)
	w := 0
	q.each(n, func(b []byte) { w += copy(p[w:], b) })
	return n
}

// appendTo appends every queued byte, oldest first, to dst without
// consuming them — the linear form a checkpoint image carries.
func (q *byteQueue) appendTo(dst []byte) []byte {
	q.each(q.n, func(b []byte) { dst = append(dst, b...) })
	return dst
}

// own copies the referenced runs into a ring of the queue's own, so
// that it keeps no array alive that it did not allocate; what it holds
// stays the same.
func (q *byteQueue) own() {
	refs := false
	for i := 0; i < q.runs.Len(); i++ {
		refs = refs || q.runs.At(i).ref != nil
	}
	if !refs {
		return
	}
	var r Ring
	r.grow(q.n)
	q.each(q.n, r.Write)
	for q.runs.Len() > 0 {
		q.runs.Pop()
	}
	q.ring = r
	q.runs.Push(run{n: q.n})
}

// discard drops n queued bytes (n <= Len) from the head.
func (q *byteQueue) discard(n int) {
	q.n -= n
	for n > 0 {
		r := q.runs.At(0)
		k := min(n, r.n)
		if r.ref != nil {
			r.ref = r.ref[k:]
		} else {
			q.ring.Discard(k)
		}
		if r.n -= k; r.n == 0 {
			q.runs.Pop()
		}
		n -= k
	}
}

// read copies up to len(p) bytes from the head into p, consumes them,
// and returns the count.
func (q *byteQueue) read(p []byte) int {
	n := q.peek(p)
	q.discard(n)
	return n
}

// headRef consumes and returns the first n bytes when one referenced run
// holds them all, and returns nil otherwise.
func (q *byteQueue) headRef(n int) []byte {
	if q.runs.Len() == 0 {
		return nil
	}
	r := q.runs.At(0)
	if r.ref == nil || r.n < n {
		return nil
	}
	b := r.ref[:n]
	q.discard(n)
	return b
}

// take consumes the first n bytes (n <= Len) and appends them to dst in
// place: referenced runs as sub-slices of their bytes, copied ones as
// slices of the ring, held there until release. A slice that continues
// dst's last one extends it instead, so the segments of one part come
// out as one piece.
func (q *byteQueue) take(dst [][]byte, n int) [][]byte {
	q.n -= n
	for left := n; left > 0; {
		r := q.runs.At(0)
		var b []byte
		if r.ref != nil {
			k := min(left, r.n)
			b, r.ref = r.ref[:k], r.ref[k:]
		} else {
			b = q.ring.take(min(left, r.n))
		}
		if last := len(dst) - 1; last >= 0 && continues(dst[last], b) {
			dst[last] = dst[last][:len(dst[last])+len(b)]
		} else {
			dst = append(dst, b)
		}
		if r.n -= len(b); r.n == 0 {
			q.runs.Pop()
		}
		left -= len(b)
	}
	return dst
}

// held returns how many ring bytes would be held after take(n).
func (q *byteQueue) held(n int) int {
	held := q.ring.held
	for i := 0; n > 0; i++ {
		r := q.runs.At(i)
		k := min(n, r.n)
		if r.ref == nil {
			held += k
		}
		n -= k
	}
	return held
}

// release ends the hold on the ring bytes take handed out.
func (q *byteQueue) release() { q.ring.release() }
