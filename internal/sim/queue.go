package sim

// Queue is a FIFO of values over one circular array that doubles when
// full and never shrinks, so a queue that fills and drains repeatedly
// settles at its high-water capacity and allocates nothing afterwards.
// Popped slots are zeroed, so a queue does not pin what its values
// referenced. The zero value is an empty queue.
//
// It is how a component keeps an event's argument out of a closure: when
// every event it schedules on one path fires in the order it was
// scheduled — non-decreasing times, ties broken by schedule order, which
// is the engine's (at, seq) order — it pushes the argument at the tail,
// schedules one callback bound once, and the callback pops the head.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest value
	n    int
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return q.n }

// At returns a pointer to the i-th oldest value, valid until the next
// Push.
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push appends v at the tail and returns a pointer to the stored copy,
// valid until the next Push.
func (q *Queue[T]) Push(v T) *T {
	if q.n == len(q.buf) {
		nb := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			nb[i] = *q.At(i)
		}
		q.buf, q.head = nb, 0
	}
	q.n++
	p := q.At(q.n - 1)
	*p = v
	return p
}

// Pop removes and returns the oldest value; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	p := q.At(0)
	v := *p
	var zero T
	*p = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
