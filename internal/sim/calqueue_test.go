package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are the pre-calendar-queue binary heap, kept as the
// ordering oracle: any correct priority queue over (at, seq) must yield
// the identical pop sequence, which is exactly the property that keeps
// same-seed golden traces byte-identical across the scheduler swap.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// TestCalendarMatchesHeapOrder drives the engine through a randomized
// mix of schedules (duplicate times, zero delays, far-future outliers)
// and cancels, checking the fire order event-by-event against the
// reference heap.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		ref := &refHeap{}

		type pending struct {
			ev  *Event
			seq uint64
		}
		var live []pending
		var fired []uint64 // engine-observed fire order, by seq
		var want []uint64  // reference order

		schedule := func() {
			var d Duration
			switch rng.Intn(10) {
			case 0:
				d = 0 // same-time burst: FIFO tie-break must hold
			case 1:
				d = Duration(rng.Int63n(int64(50 * Second))) // far outlier
			default:
				d = Duration(rng.Int63n(int64(5 * Millisecond)))
			}
			at := e.Now().Add(d)
			var ev *Event
			seq := uint64(0)
			ev = e.Schedule(d, func() { fired = append(fired, seq) })
			seq = ev.seq
			live = append(live, pending{ev, seq})
			heap.Push(ref, refEvent{at: at, seq: seq})
		}

		cancelOne := func() {
			if len(live) == 0 {
				return
			}
			i := rng.Intn(len(live))
			p := live[i]
			if e.Cancel(p.ev) {
				for j, re := range *ref {
					if re.seq == p.seq {
						heap.Remove(ref, j)
						break
					}
				}
			}
			live = append(live[:i], live[i+1:]...)
		}

		stepOne := func() {
			if !e.Step() {
				return
			}
			re := heap.Pop(ref).(refEvent)
			want = append(want, re.seq)
			for j, p := range live {
				if p.seq == re.seq {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		}

		for i := 0; i < 20000; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				schedule()
			case 2:
				cancelOne()
			default:
				stepOne()
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("seed %d op %d: Pending=%d ref=%d", seed, i, e.Pending(), ref.Len())
			}
		}
		for e.Step() {
			re := heap.Pop(ref).(refEvent)
			want = append(want, re.seq)
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(fired), len(want))
		}
		for i := range fired {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire order diverged at %d: got seq %d, want %d", seed, i, fired[i], want[i])
			}
		}
	}
}

// TestRunUntilHorizon pins peek-based horizon semantics: RunUntil must
// fire exactly the events at or before the horizon and advance the clock
// to the horizon when the queue runs dry early — including when the next
// event is far beyond one calendar year (direct-search path).
func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*Millisecond, func() { got = append(got, 2) })
	e.Schedule(10*Second, func() { got = append(got, 3) }) // far out
	if err := e.RunFor(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("clock %v, want 5ms", e.Now())
	}
	if err := e.RunFor(10 * Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("far event never fired: %v", got)
	}
}

// TestCancelRecycledEvent pins the free-list retention contract for the
// calendar-queue scheduler: Cancel of an event that already fired and
// was recycled must return false deterministically, must not corrupt
// the free list (no double-insertion), and the struct must be handed
// out exactly once by subsequent schedules.
func TestCancelRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	stale := e.Schedule(Microsecond, func() {})
	e.Run()
	// stale now sits on the free list. Cancel must be a no-op.
	for i := 0; i < 3; i++ {
		if e.Cancel(stale) {
			t.Fatalf("Cancel %d of a fired-and-recycled event returned true", i)
		}
	}
	if len(e.free) != 1 {
		t.Fatalf("free list length %d after no-op cancels, want 1", len(e.free))
	}
	// The struct is reused exactly once: the two next schedules must get
	// distinct structs, the first of them the recycled one.
	a := e.Schedule(Microsecond, func() {})
	b := e.Schedule(Microsecond, func() {})
	if a != stale {
		t.Fatal("recycled struct was not reused by the next Schedule")
	}
	if a == b {
		t.Fatal("free list handed out the same struct twice")
	}
	// Once reused, the stale pointer aliases the live event a — Cancel
	// through it cancels a. That is the documented hazard, pinned here so
	// a change to it is a conscious one.
	if !e.Cancel(stale) {
		t.Fatal("Cancel through a reused pointer no longer reaches the live event")
	}
	if !a.Canceled() {
		t.Fatal("aliased cancel did not mark the live event")
	}
	if e.Cancel(b) != true {
		t.Fatal("unrelated live event was damaged by the aliased cancel")
	}
}

// TestCalendarResizeKeepsOrder forces growth and shrink cycles through
// the resize thresholds and checks order across them.
func TestCalendarResizeKeepsOrder(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(7))
	var fired []Time
	evs := make([]*Event, 0, 5000)
	for i := 0; i < 5000; i++ {
		evs = append(evs, e.Schedule(Duration(rng.Int63n(int64(Second))), func() {
			fired = append(fired, e.Now())
		}))
	}
	// Cancel a third to trigger shrink churn before the drain.
	canceled := 0
	for i := 0; i < len(evs); i += 3 {
		if e.Cancel(evs[i]) {
			canceled++
		}
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire times went backwards at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
	if want := 5000 - canceled; len(fired) != want {
		t.Fatalf("fired %d, want %d", len(fired), want)
	}
}

// TestWarmYearRollAllocatesNothing: once the scratch buffer, the bag and
// the bucket heaps have reached their working size, rolling the year —
// sample the bag's times, sort them, re-lay the calendar, migrate — is
// allocation-free, as calQueue.fitbuf and setLayout promise.
func TestWarmYearRollAllocatesNothing(t *testing.T) {
	q := newCalQueue()
	evs := make([]*Event, 16)
	for i := range evs {
		evs[i] = &Event{}
	}
	for i := range q.buckets {
		q.buckets[i] = make([]*Event, 0, len(evs))
	}
	var now int64
	var rolls int
	cycle := func() {
		rolls = 0
		// Everything lands past the calendar's year, in the overflow bag;
		// the pop that finds the calendar empty rolls the year.
		for i, ev := range evs {
			ev.at, ev.seq = Time(q.yearEnd+int64(i)*int64(Millisecond)), uint64(i)
			q.push(ev, now)
		}
		for range evs {
			if q.calSize == 0 {
				rolls++
			}
			now = int64(q.pop(now).at)
		}
	}
	cycle()
	if rolls == 0 {
		t.Fatal("the cycle never rolls the year")
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a warm queue allocates %.1f times per cycle of %d year rolls, want 0", avg, rolls)
	}
}

// TestCalendarGrowthAllocatesPerLayout grows a queue from 64 to 2^k
// buckets by doubling and checks that it allocates a few times per
// doubling, not once per bucket: each layout carves its buckets' first
// slots from one slab. The events fire at bit-reversed multiples of one
// step, so every prefix of the schedule is evenly spread and the buckets
// fill evenly, as grow's two-per-bucket average assumes.
func TestCalendarGrowthAllocatesPerLayout(t *testing.T) {
	const k = 14
	const n = 1 << (k + 1) // two residents per bucket of 2^k
	const span = int64(1) << 30
	evs := make([]*Event, n)
	for i := range evs {
		rev := int64(0)
		for b := 0; b < k+1; b++ {
			rev |= int64(i>>b&1) << (k - b)
		}
		evs[i] = &Event{at: Time(rev * (span / n)), seq: uint64(i)}
	}
	var q *calQueue
	fill := func() {
		q = newCalQueue()
		// A year that already spans the schedule, as one roll leaves it.
		q.setLayout(cqMinBuckets, shiftFor(span, cqMinBuckets), 0)
		for _, ev := range evs {
			q.push(ev, 0)
		}
	}
	avg := testing.AllocsPerRun(3, fill)
	if len(q.buckets) != 1<<k || len(q.bag) != 0 || q.len() != n {
		t.Fatalf("%d buckets, %d in the bag, %d queued; want %d, 0, %d", len(q.buckets), len(q.bag), q.len(), 1<<k, n)
	}
	doublings := k - 6 // from cqMinBuckets = 2^6
	t.Logf("%d doublings to %d buckets: %.0f allocations", doublings, 1<<k, avg)
	if avg > float64(8*(doublings+1)) {
		t.Fatalf("growing to %d buckets allocates %.0f times over %d doublings, want a few per doubling", 1<<k, avg, doublings)
	}
}
