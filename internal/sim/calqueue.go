package sim

import (
	"math/bits"
	"slices"
)

// calQueue is the engine's event queue: a calendar queue (Brown 1988)
// giving O(1) amortized push/pop instead of a single global binary
// heap's O(log n), with an unsorted overflow bag for the far-future
// tail.
//
// Events inside the current calendar "year" hash by time into buckets
// of a power-of-two width (the time→bucket map is a shift, not a
// division); a cursor walks the buckets in time order, skipping runs of
// empty buckets via an occupancy bitmap. Each bucket is itself a tiny
// binary min-heap on (at, seq), so the bucket minimum is its root: peek
// never scans a bucket, and a same-time burst of k events (a broadcast
// fan-out landing in one bucket) drains in O(log k) per pop rather than
// O(k). Events at or beyond the year's end — sparse timers, leases,
// retransmit backstops — sit in an unsorted bag of inline (at, event)
// pairs: insert and cancel are O(1) swaps, and when the calendar
// drains, one sequential partition scan migrates roughly the earlier
// half of the bag (split at a sampled median) into a fresh year. A
// roll's scan is linear but migrates a constant fraction, so the far
// tail pays amortized O(1) per event — never the per-event O(log n) a
// sorted overflow heap would charge at migration.
//
// The queue produces exactly the total order the global heap produced —
// strict (at, seq) ordering — so same-seed runs remain byte-identical:
// every bag event fires after every calendar event (at ≥ yearEnd), any
// two calendar events with equal times land in the same bucket, and the
// bucket heap disambiguates by seq, the FIFO scheduling order.
//
// Aliasing invariant: within one year, absolute bucket numbers
// (at>>shift) map to ring indexes without wrapping, which is what makes
// the first occupied bucket's root the global minimum. Years therefore
// start at the engine's current virtual time — the clock lower-bounds
// every future insert — and span exactly nbuckets widths; callers pass
// `now` in so the queue can hold that invariant without importing the
// engine's clock.
//
// Determinism: bucket width, bucket count, and year span are recomputed
// only at growth and year rolls, purely from the engine clock and the
// queued events' times (deterministic stride sample, sorted), so the
// layout — and therefore every cursor walk and sift — is a function of
// the schedule history alone.
type calQueue struct {
	buckets [][]*Event
	// words is an occupancy bitmap over buckets (bit i set ⇔ buckets[i]
	// non-empty), so the cursor walk crosses runs of empty buckets with
	// TrailingZeros64 instead of stepping one bucket at a time.
	words   []uint64
	mask    int
	shift   uint // bucket width is 1<<shift virtual ns
	calSize int  // events resident in buckets

	// curAbs is the scan cursor as an absolute bucket number (at>>shift):
	// no calendar event lives below it. It only moves forward (inserts
	// pull it back), so walk work within a year is paid once, not per
	// peek.
	curAbs int64

	// yearEnd is the exclusive time bound of the calendar: an event at
	// or past it goes to the overflow bag. Every bag event therefore
	// fires after every calendar event.
	yearEnd int64

	// bag holds the far-future overflow, unsorted. Entries carry the
	// firing time inline so roll scans read sequential memory instead of
	// chasing event pointers. A bag resident has ev.bucket == -1 and
	// ev.slot == its bag index (swap-remove keeps indexes dense).
	bag []bagEnt

	// fitbuf is reusable scratch for time samples, keeping steady-state
	// rolls allocation-free.
	fitbuf []int64
}

type bagEnt struct {
	at int64
	ev *Event
}

const (
	// cqMinBuckets is one bitmap word.
	cqMinBuckets = 64
	// cqFitSample caps how many event times a layout decision sorts;
	// beyond it a deterministic stride sample stands in for the full
	// population.
	cqFitSample = 4096
	// cqMaxShift keeps yearEnd arithmetic far from int64 overflow.
	cqMaxShift = 40
	// cqBucketCap is each bucket's initial capacity, carved from one slab
	// per layout: twice the two residents per bucket that grow allows on
	// average. Buckets that same-time bursts overfill grow on their own.
	cqBucketCap = 4
)

func newCalQueue() *calQueue {
	q := &calQueue{}
	q.setLayout(cqMinBuckets, 0, 0)
	return q
}

// setLayout (re)installs the calendar geometry; the buckets must be
// logically empty (calSize 0). nbuckets must be a power of two and a
// multiple of 64. The arrays are reused when the count is unchanged —
// steady-state year rolls allocate nothing. A new bucket array takes
// every bucket's first cqBucketCap slots from one slab, so filling a
// fresh layout allocates only for the buckets that outgrow them.
func (q *calQueue) setLayout(nbuckets int, shift uint, start int64) {
	if nbuckets != len(q.buckets) {
		q.buckets = make([][]*Event, nbuckets)
		slab := make([]*Event, nbuckets*cqBucketCap)
		for i := range q.buckets {
			q.buckets[i] = slab[i*cqBucketCap : i*cqBucketCap : (i+1)*cqBucketCap]
		}
		q.words = make([]uint64, nbuckets/64)
		q.mask = nbuckets - 1
	}
	q.calSize = 0
	q.shift = shift
	q.curAbs = start >> shift
	q.yearEnd = (start>>shift + int64(nbuckets)) << shift
}

// len returns the number of queued events.
func (q *calQueue) len() int { return q.calSize + len(q.bag) }

// evLess is the engine's total order: firing time, then schedule order.
func evLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// siftUp restores a bucket heap upward from slot i, keeping each
// event's slot index in step with its heap position. The moving event
// is held out as a "hole" so each level costs one pointer write, not a
// swap.
func siftUp(b []*Event, i int) {
	ev := b[i]
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(ev, b[p]) {
			break
		}
		b[i] = b[p]
		b[i].slot = i
		i = p
	}
	b[i] = ev
	ev.slot = i
}

// siftDown restores a bucket heap downward from slot i.
func siftDown(b []*Event, i int) {
	n := len(b)
	ev := b[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(b[r], b[l]) {
			m = r
		}
		if !evLess(b[m], ev) {
			break
		}
		b[i] = b[m]
		b[i].slot = i
		i = m
	}
	b[i] = ev
	ev.slot = i
}

// calInsert places ev into its bucket heap; ev.at must be below
// yearEnd.
func (q *calQueue) calInsert(ev *Event) {
	abs := int64(ev.at) >> q.shift
	bi := int(abs) & q.mask
	b := q.buckets[bi]
	ev.bucket = bi
	ev.slot = len(b)
	b = append(b, ev)
	siftUp(b, len(b)-1)
	q.buckets[bi] = b
	q.words[bi>>6] |= 1 << uint(bi&63)
	q.calSize++
	if abs < q.curAbs {
		// The event lands before the cursor (which had advanced through
		// empty buckets); pull it back so the next scan cannot miss it.
		q.curAbs = abs
	}
}

// insert routes ev to the calendar or the overflow bag.
func (q *calQueue) insert(ev *Event) {
	if int64(ev.at) >= q.yearEnd {
		ev.bucket = -1
		ev.slot = len(q.bag)
		q.bag = append(q.bag, bagEnt{at: int64(ev.at), ev: ev})
	} else {
		q.calInsert(ev)
	}
}

// push enqueues ev. now is the engine clock, the lower bound of every
// future event time.
func (q *calQueue) push(ev *Event, now int64) {
	q.insert(ev)
	for q.calSize > 2*len(q.buckets) {
		q.grow(now)
	}
}

// remove unlinks ev, which must be queued (in either tier). ev.slot
// becomes -1, the "not queued" sentinel Cancel checks.
func (q *calQueue) remove(ev *Event) {
	if ev.bucket < 0 {
		i := ev.slot
		last := len(q.bag) - 1
		if i != last {
			q.bag[i] = q.bag[last]
			q.bag[i].ev.slot = i
		}
		q.bag[last] = bagEnt{}
		q.bag = q.bag[:last]
		ev.slot = -1
		return
	}
	b := q.buckets[ev.bucket]
	last := len(b) - 1
	i := ev.slot
	if i != last {
		b[i] = b[last]
		b[i].slot = i
	}
	b[last] = nil
	b = b[:last]
	q.buckets[ev.bucket] = b
	if i != last {
		// One of the two is a no-op: the moved leaf either sinks or
		// floats (it cannot need both).
		siftDown(b, i)
		siftUp(b, i)
	} else if last == 0 {
		q.words[ev.bucket>>6] &^= 1 << uint(ev.bucket&63)
	}
	q.calSize--
	ev.slot = -1
}

// peek returns the queue minimum by (at, seq) without removing it, or
// nil when empty. The minimum is always a calendar resident (bag events
// fire strictly later), and within the calendar it is the root of the
// first occupied bucket at or after the cursor: buckets below the
// cursor are empty by the cursor invariant, absolute bucket numbers are
// alias-free within a year, and equal-time events share a bucket where
// the heap order breaks the tie by seq.
func (q *calQueue) peek(now int64) *Event {
	for q.calSize == 0 {
		if len(q.bag) == 0 {
			return nil
		}
		q.rollYear(now)
	}
	j := int(q.curAbs) & q.mask
	d := 0
	w := q.words[j>>6] & (^uint64(0) << uint(j&63))
	for w == 0 {
		d += 64 - (j & 63)
		j = (j + 64 - (j & 63)) & q.mask
		w = q.words[j>>6]
	}
	adv := bits.TrailingZeros64(w) - (j & 63)
	q.curAbs += int64(d + adv)
	return q.buckets[(j+adv)&q.mask][0]
}

// pop removes and returns the queue minimum, or nil when empty. The
// minimum is its bucket's heap root, so the unlink is the cheap
// remove-root case: move the last leaf up and sift down once.
func (q *calQueue) pop(now int64) *Event {
	ev := q.peek(now)
	if ev == nil {
		return nil
	}
	b := q.buckets[ev.bucket]
	last := len(b) - 1
	if last > 0 {
		b[0] = b[last]
	}
	b[last] = nil
	b = b[:last]
	q.buckets[ev.bucket] = b
	if last > 0 {
		siftDown(b, 0)
	} else {
		q.words[ev.bucket>>6] &^= 1 << uint(ev.bucket&63)
	}
	q.calSize--
	ev.slot = -1
	return ev
}

// sampleTimes returns a deterministic stride sample of the bag's firing
// times, sorted ascending, in the reusable scratch buffer.
func (q *calQueue) sampleTimes() []int64 {
	stride := 1
	if len(q.bag) > cqFitSample {
		stride = len(q.bag) / cqFitSample
	}
	ts := q.fitbuf[:0]
	for i := 0; i < len(q.bag); i += stride {
		ts = append(ts, q.bag[i].at)
	}
	slices.Sort(ts)
	q.fitbuf = ts[:0]
	return ts
}

// shiftFor returns the smallest shift whose bucket width w satisfies
// (nbuckets-1)·w ≥ span, so that one year starting anywhere within a
// bucket width still covers the span.
func shiftFor(span int64, nbuckets int) uint {
	w := (span + int64(nbuckets) - 2) / int64(nbuckets-1)
	if w <= 1 {
		return 0
	}
	shift := uint(bits.Len64(uint64(w - 1)))
	if shift > cqMaxShift {
		shift = cqMaxShift
	}
	return shift
}

// migrateBag moves every bag event below yearEnd into the calendar with
// one partition scan (swap-remove compaction, order-free).
func (q *calQueue) migrateBag() {
	for i := 0; i < len(q.bag); {
		if q.bag[i].at < q.yearEnd {
			ev := q.bag[i].ev
			last := len(q.bag) - 1
			q.bag[i] = q.bag[last]
			q.bag[last] = bagEnt{}
			q.bag = q.bag[:last]
			if i < len(q.bag) {
				q.bag[i].ev.slot = i
			}
			q.calInsert(ev)
		} else {
			q.bag[i].ev.slot = i
			i++
		}
	}
}

// rollYear restarts the empty calendar on the earlier part of the bag:
// it splits the bag at a sampled median firing time, sizes a year
// starting at now that covers the split point, and partition-migrates
// everything the year covers. Each roll scans the bag once but migrates
// at least half the sample's mass, so the far tail pays amortized O(1)
// per event. The bucket count grows to keep migrated years at roughly
// one event per bucket and never shrinks — a sparse wide calendar costs
// only memory, and the monotone cursor keeps its walks amortized.
func (q *calQueue) rollYear(now int64) {
	ts := q.sampleTimes()
	// The median sampled time must land inside the new year, so at
	// least half the sample (and roughly half the bag) migrates. The
	// now+1 floor keeps the year non-degenerate when every event fires
	// at the current instant.
	split := ts[len(ts)/2]
	if split <= now {
		split = now + 1
	}
	nbuckets := len(q.buckets)
	for nbuckets < 2*len(q.bag) {
		nbuckets *= 2
	}
	q.setLayout(nbuckets, shiftFor(split-now, nbuckets), now)
	q.migrateBag()
}

// grow doubles the bucket count and refits the year to the calendar
// residents: the new year starts at now, covers every current resident
// (nothing flows back to the bag), and admits any bag events it newly
// covers. Triggered when resident count exceeds twice the bucket count,
// so rebuild work is geometric in the population.
func (q *calQueue) grow(now int64) {
	evs := make([]*Event, 0, q.calSize)
	for _, b := range q.buckets {
		evs = append(evs, b...)
	}
	maxAt := int64(evs[0].at)
	for _, ev := range evs[1:] {
		if int64(ev.at) > maxAt {
			maxAt = int64(ev.at)
		}
	}
	nbuckets := 2 * len(q.buckets)
	q.setLayout(nbuckets, shiftFor(maxAt+1-now, nbuckets), now)
	for _, ev := range evs {
		q.calInsert(ev)
	}
	q.migrateBag()
}
