package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are a container/heap reference queue, kept as the
// ordering oracle: any correct priority queue over (at, seq) must yield
// the identical pop sequence, which is exactly the property that keeps
// same-seed golden traces byte-identical whatever the engine's queue.
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

// TestQueueMatchesReferenceOrder drives the engine through a randomized
// mix of schedules (duplicate times, zero delays, far-future outliers)
// and cancels, checking the fire order event-by-event against the
// reference heap.
func TestQueueMatchesReferenceOrder(t *testing.T) {
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
// fire exactly the events at or before the horizon, advance the clock to
// the horizon when nothing else fires before it, and fire a far-future
// event on a later call.
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

// TestCancelRecycledEvent pins the engine's free-list retention
// contract: Cancel of an event that already fired and
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

// TestBulkCancelKeepsOrder queues 5000 events at once, cancels every
// third from slots all over the heap, and checks the rest fire in time
// order.
func TestBulkCancelKeepsOrder(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(7))
	var fired []Time
	evs := make([]*Event, 0, 5000)
	for i := 0; i < 5000; i++ {
		evs = append(evs, e.Schedule(Duration(rng.Int63n(int64(Second))), func() {
			fired = append(fired, e.Now())
		}))
	}
	// Cancel a third before the drain: each moves a leaf into its slot.
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

// TestQueueAllocatesPerGrowth: the heap's array is the queue's only
// allocation. Filling an empty queue with 2^15 events allocates once per
// growth of the array, not once per event.
func TestQueueAllocatesPerGrowth(t *testing.T) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(1))
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = &Event{at: Time(rng.Int63n(int64(Second))), seq: uint64(i)}
	}
	var q eventQueue
	avg := testing.AllocsPerRun(3, func() {
		q = nil
		for _, ev := range evs {
			q.push(ev)
		}
	})
	if len(q) != n {
		t.Fatalf("%d queued, want %d", len(q), n)
	}
	t.Logf("filling to %d events: %.0f allocations", n, avg)
	if avg > 2*15 {
		t.Fatalf("filling to 2^15 events allocates %.0f times, want at most two per doubling", avg)
	}
}

// TestWarmQueueAllocatesNothing: a warm engine that schedules, cancels and
// fires at or below its high-water depth allocates nothing.
func TestWarmQueueAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine(1)
	fn := func() {}
	live := make([]*Event, 0, 3000)
	cycle := func() {
		live = live[:0]
		for i := 0; i < cap(live); i++ {
			live = append(live, e.Schedule(Duration(rng.Int63n(int64(Millisecond))), fn))
		}
		for i := 0; i < len(live); i += 3 {
			e.Cancel(live[i])
		}
		e.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a warm engine allocates %.1f times per cycle, want 0", avg)
	}
}
