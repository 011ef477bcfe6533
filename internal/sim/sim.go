// Package sim provides a deterministic discrete-event simulation engine.
//
// All Cruz components — the simulated kernels, the TCP/IP stack, the
// Ethernet fabric, disks, and application programs — run on a single
// Engine. Virtual time only advances when the event at the head of the
// queue fires, so every experiment is reproducible bit-for-bit from its
// seed: there are no wall-clock reads and no reliance on Go scheduler
// interleaving.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration's unit so the familiar constants below read naturally.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds returns the duration as a floating-point number of
// microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. Events fire in (at, seq) order: by
// firing time and, for equal times, by scheduling order, which keeps the
// simulation deterministic.
//
// Fired and canceled events are recycled through the engine's free list
// (scheduling is on the hot path: every packet, disk transfer, and
// pre-copy round segment is an event). A caller that retains the *Event
// returned by Schedule must therefore drop its reference once the event
// has fired or been canceled — the usual pattern is to nil the field at
// the top of the callback — and must never call Cancel, Canceled, or At
// on a pointer retained past that moment: the struct may already belong
// to an unrelated later event.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	slot     int // index in the engine's heap; -1 once popped or canceled
	canceled bool
}

// At returns the virtual time at which the event fires (or would have
// fired, if canceled).
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event before it fired.
func (e *Event) Canceled() bool { return e.canceled }

// ErrStopped is returned by Run when Stop was called before the horizon or
// event exhaustion was reached.
var ErrStopped = errors.New("sim: engine stopped")

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// fired counts events executed, useful for tests and runaway guards.
	fired uint64
	// traceSink holds the cluster's tracer (an opaque any so sim does not
	// depend on the trace package); components reach it through
	// trace.FromEngine. stepHook, when set, observes every dispatched
	// event — the tracer uses it for sampled dispatch counters.
	traceSink any
	stepHook  func()
	// free recycles fired and canceled events, keeping the steady-state
	// schedule/fire cycle allocation-free. When it is empty, events come
	// from slab, allocated 64 at a time, so a burst past the working set
	// allocates once per 64 events.
	free []*Event
	slab []Event
}

// NewEngine returns an engine whose clock reads zero and whose
// deterministic random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All simulation
// randomness (initial TCP sequence numbers, jitter) must come from here.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetTraceSink attaches an opaque tracing sink to the engine. Every
// component holds the engine, so the sink is reachable from anywhere in
// the stack without the sim package importing the trace package.
func (e *Engine) SetTraceSink(v any) { e.traceSink = v }

// TraceSink returns the value set by SetTraceSink (nil if none).
func (e *Engine) TraceSink() any { return e.traceSink }

// SetStepHook installs fn to run after every event dispatch, with the
// clock already advanced to the event's firing time. A nil fn removes the
// hook. The hook must not schedule events.
func (e *Engine) SetStepHook(fn func()) { e.stepHook = fn }

// Schedule arranges for fn to run after delay elapses. A negative delay is
// treated as zero (fires "now", after already-queued events at the current
// time). It returns the Event so the caller may cancel it.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times in
// the past are clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]Event, 64)
		}
		ev = &e.slab[0]
		e.slab = e.slab[1:]
	}
	*ev = Event{at: at, seq: e.seq, fn: fn}
	e.queue.push(ev)
	return ev
}

// recycle returns a dead event to the free list, releasing its closure.
// slot stays -1 until the struct is reused, so Cancel on a pointer
// retained past firing is a deterministic no-op (returns false) for as
// long as the struct sits on the free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.slot = -1
	e.free = append(e.free, ev)
}

// Cancel removes the event from the queue if it has not fired yet,
// reporting whether it was actually descheduled. A canceled event goes
// back to the free list, so the caller must drop its reference (see the
// Event retention contract). Calling Cancel on an event that already
// fired (or was already canceled) returns false without touching the
// free list — until the struct is reused by a later Schedule, at which
// point the stale pointer aliases the new event.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.canceled || ev.slot < 0 {
		return false
	}
	ev.canceled = true
	e.queue.remove(ev)
	e.recycle(ev)
	return true
}

// Step executes the single next event, advancing the clock to its firing
// time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	if e.stepHook != nil {
		e.stepHook()
	}
	fn := ev.fn
	// Recycle only after fn returns: callbacks may Cancel the event that
	// is firing (a harmless no-op), and that must not hit a reused struct.
	fn()
	e.recycle(ev)
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// ErrStopped if stopped, nil on drain.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if !e.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with firing times <= horizon, advancing the
// clock to exactly horizon if the queue runs dry earlier. It returns
// ErrStopped if Stop was called.
func (e *Engine) RunUntil(horizon Time) error {
	e.stopped = false
	for !e.stopped {
		if ev := e.queue.peek(); ev == nil || ev.at > horizon {
			if e.now < horizon {
				e.now = horizon
			}
			return nil
		}
		e.Step()
	}
	return ErrStopped
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d Duration) error { return e.RunUntil(e.now.Add(d)) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Ticker invokes fn every period until canceled. It is a convenience for
// periodic activities such as rate sampling.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	tickFn  func() // tick bound once, so re-arming allocates nothing
	ev      *Event
	stopped bool
}

// NewTicker schedules fn every period, first firing one period from now.
func (e *Engine) NewTicker(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tickFn = t.tick
	t.arm()
	return t
}

func (t *Ticker) arm() { t.ev = t.engine.Schedule(t.period, t.tickFn) }

func (t *Ticker) tick() {
	t.ev = nil // fired: the engine recycles it
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.Cancel(t.ev)
	t.ev = nil
}
