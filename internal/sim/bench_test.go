package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestEventRecycling pins the free-list behavior: a fired or canceled
// event is reused by the next ScheduleAt, with its state fully reset.
func TestEventRecycling(t *testing.T) {
	e := NewEngine(1)
	ev1 := e.Schedule(Microsecond, func() {})
	e.Run()
	ev2 := e.Schedule(2*Microsecond, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if ev2.Canceled() {
		t.Fatal("recycled event kept canceled state")
	}
	if ev2.At() != Time(3*Microsecond) {
		t.Fatalf("recycled event At = %v, want 3µs", ev2.At())
	}
	e.Cancel(ev2)
	ev3 := e.Schedule(Microsecond, func() {})
	if ev3 != ev2 {
		t.Fatal("canceled event was not recycled by the next Schedule")
	}
	if ev3.Canceled() {
		t.Fatal("recycled event kept canceled state after cancel-reuse")
	}
}

// TestSelfCancelDuringFire pins the Step ordering contract: a callback
// may Cancel the very event that is firing (a stale-pointer pattern the
// retention contract forbids for *retained* references, but which must
// at least not corrupt the free list when it happens synchronously).
func TestSelfCancelDuringFire(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	ran := false
	ev = e.Schedule(Microsecond, func() {
		ran = true
		if e.Cancel(ev) {
			t.Error("Cancel of the firing event reported true")
		}
	})
	e.Run()
	if !ran {
		t.Fatal("event never fired")
	}
	// The event must have been recycled exactly once: two schedules must
	// yield two distinct structs.
	a := e.Schedule(Microsecond, func() {})
	b := e.Schedule(Microsecond, func() {})
	if a == b {
		t.Fatal("free list handed out the same event twice")
	}
}

// BenchmarkEngineSchedule measures the steady-state schedule/fire cycle.
// With the free list this is allocation-free, which matters because every
// packet hop, disk transfer, and pre-copy segment is one of these cycles.
func BenchmarkEngineSchedule(b *testing.B) {
	b.Run("fire", func(b *testing.B) {
		e := NewEngine(1)
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(Microsecond, fn)
			e.Step()
		}
	})
	b.Run("cancel", func(b *testing.B) {
		e := NewEngine(1)
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := e.Schedule(Microsecond, fn)
			e.Cancel(ev)
		}
	})
}

// BenchmarkEngineScheduleMixed interleaves schedule, pop, and cancel at
// steady queue depths of 1e2 to 1e5, the range the real traffic spans:
// a few hundred events on the four-node bench workloads, a few thousand
// on wide64 and ec8, up to 66,560 at n = 256 (EXPERIMENTS A24). `make
// gobench` prints it; EXPERIMENTS A24 holds the last recorded ns/op.
func BenchmarkEngineScheduleMixed(b *testing.B) {
	// Deterministic delay mix resembling the cluster workload: mostly
	// sub-ms protocol/disk events, some zero-delay chains, a few long
	// timers.
	mkDelays := func() []Duration {
		rng := rand.New(rand.NewSource(1))
		delays := make([]Duration, 8192)
		for i := range delays {
			switch i % 16 {
			case 0:
				delays[i] = 0
			case 1:
				delays[i] = Duration(rng.Int63n(int64(2 * Second)))
			default:
				delays[i] = Duration(rng.Int63n(int64(Millisecond)))
			}
		}
		return delays
	}
	for _, depth := range []int{1e2, 1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			delays := mkDelays()
			e := NewEngine(1)
			fn := func() {}
			for i := 0; i < depth; i++ {
				e.Schedule(delays[i%len(delays)], fn)
			}
			var pend *Event
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(delays[i%len(delays)], fn)
				if i%4 == 3 {
					e.Cancel(pend)
					pend = e.Schedule(delays[(i+7)%len(delays)], fn)
				}
				e.Step()
			}
		})
	}
}
