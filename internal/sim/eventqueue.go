package sim

// eventQueue is the engine's event queue: a binary min-heap of events on
// (at, seq), firing time and then schedule order. That strict total
// order is the engine's whole contract — same-time events fire first in,
// first out, and a same-seed run repeats byte for byte. A queued event's
// slot is its index in the heap, so Cancel unlinks it in O(log n)
// without a search; slot is -1 once the event is popped or removed.
//
// The array grows by append and never shrinks, so an engine that has
// once reached a depth (a few hundred events on a four-node workload,
// 66,560 at n = 256; EXPERIMENTS A24) runs at or below it allocation-free.
type eventQueue []*Event

// peek returns the queue minimum without removing it, or nil when empty.
func (q eventQueue) peek() *Event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// push enqueues ev.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

// pop removes and returns the queue minimum, or nil when empty.
func (q *eventQueue) pop() *Event {
	ev := q.peek()
	if ev != nil {
		q.remove(ev)
	}
	return ev
}

// remove unlinks ev, which must be queued: the last leaf takes its slot
// and sifts whichever way it must (it cannot need both).
func (q *eventQueue) remove(ev *Event) {
	h := *q
	i, last := ev.slot, len(h)-1
	h[i] = h[last]
	h[i].slot = i
	h[last] = nil
	*q = h[:last]
	if i != last {
		q.siftDown(i)
		q.siftUp(i)
	}
	ev.slot = -1
}

// evLess is the engine's total order: firing time, then schedule order.
func evLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// siftUp restores the heap upward from slot i, keeping each event's slot
// in step with its position. The moving event is held out as a "hole",
// so each level costs one pointer write, not a swap.
func (q eventQueue) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].slot = i
		i = p
	}
	q[i] = ev
	ev.slot = i
}

// siftDown restores the heap downward from slot i.
func (q eventQueue) siftDown(i int) {
	n := len(q)
	ev := q[i]
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && evLess(q[r], q[m]) {
			m = r
		}
		if !evLess(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].slot = i
		i = m
	}
	q[i] = ev
	ev.slot = i
}
