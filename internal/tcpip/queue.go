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

// shape returns how many runs the first n queued bytes (n <= Len)
// span, and how many of those bytes were copied in.
func (q *byteQueue) shape(n int) (runs, copied int) {
	for i := 0; n > 0; i++ {
		r := q.runs.At(i)
		k := min(n, r.n)
		if r.ref == nil {
			copied += k
		}
		runs++
		n -= k
	}
	return runs, copied
}

// cut consumes the first n queued bytes into spans, one per run they
// span (shape's count): a referenced run's as a slice of its bytes,
// which keeps the capacity of its array, and a copied run's copied into
// buf, back to back, and sliced from there. buf holds exactly the copied
// bytes.
func (q *byteQueue) cut(n int, spans []span, buf []byte) {
	for i := range spans {
		r := q.runs.At(0)
		k := min(n, r.n)
		if r.ref != nil {
			spans[i] = span{b: r.ref[:k], ref: true}
			q.discard(k)
		} else {
			spans[i] = span{b: buf[:q.read(buf[:k]):k]}
			buf = buf[k:]
		}
		n -= k
	}
}

// take consumes up to n queued bytes and appends them to dst in order:
// a referenced run's as sub-slices of its bytes, a copied run's copied
// into buf's spare capacity and sliced from there. It stops short at
// copied bytes buf has no room for, and returns dst, buf and the count.
// A slice that continues dst's last one extends it instead, so the
// segments of one part come out as one piece, and so do copied bytes
// taken back to back.
func (q *byteQueue) take(dst [][]byte, buf []byte, n int) ([][]byte, []byte, int) {
	took := 0
	for took < n && q.runs.Len() > 0 {
		r := q.runs.At(0)
		k := min(n-took, r.n)
		var b []byte
		if r.ref != nil {
			b = r.ref[:k]
			q.discard(k)
		} else {
			if k = min(k, cap(buf)-len(buf)); k == 0 {
				break
			}
			off := len(buf)
			buf = buf[:off+k]
			b = buf[off : off+q.read(buf[off:])]
		}
		if last := len(dst) - 1; last >= 0 && continues(dst[last], b) {
			dst[last] = dst[last][:len(dst[last])+len(b)]
		} else {
			dst = append(dst, b)
		}
		took += k
	}
	return dst, buf, took
}
