// Package trace is Cruz's deterministic tracing and telemetry layer.
//
// Because the whole stack runs on one discrete-event engine, every trace
// event is stamped with virtual time and the complete trace is a pure
// function of the simulation seed: two runs from the same seed produce
// byte-identical exports. That makes traces diffable — a behavioural
// change shows up as a trace diff, not as noise.
//
// The model is deliberately small:
//
//   - Instant: a point event (a signal delivered, a retransmit fired).
//   - Span: a Begin/End pair measuring a phase (quiesce, disk write, a
//     whole coordinated checkpoint). Spans nest and may overlap across
//     nodes; they are matched by SpanID, not by stack discipline.
//   - Counter: a named numeric sample (events dispatched, queue depth).
//
// Every event carries a node (which simulated machine), a category
// (which subsystem: sim, kernel, tcp, zap, core, flush, ckpt, phase),
// and up to MaxArgs key/value arguments stored inline — no maps, no
// interface boxing — so a tracer stays allocation-light and a nil
// *Tracer is a safe no-op everywhere.
//
// Events land in a bounded ring buffer; exporters (export.go) render the
// ring as a human-readable timeline or as Chrome trace-event JSON for
// Perfetto / chrome://tracing, and report.go derives the per-phase
// checkpoint-latency breakdown the paper's Fig. 5 discussion implies.
package trace

import (
	"fmt"
	"slices"
	"sort"

	"cruz/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindInstant Kind = iota
	KindBegin
	KindEnd
	KindCounter
)

// MaxArgs is the number of key/value arguments an event can carry inline.
const MaxArgs = 4

// Arg is one key/value argument. Exactly one of Str (IsStr) or Num is
// meaningful. Args are stored by value inside events to avoid per-event
// heap allocation.
type Arg struct {
	Key   string
	Str   string
	Num   float64
	IsStr bool
}

// Str builds a string-valued argument.
func Str(key, val string) Arg { return Arg{Key: key, Str: val, IsStr: true} }

// Num builds a float-valued argument.
func Num(key string, val float64) Arg { return Arg{Key: key, Num: val} }

// Int builds an integer-valued argument.
func Int(key string, val int64) Arg { return Arg{Key: key, Num: float64(val)} }

// SpanID identifies one Begin/End pair. IDs are allocated from a
// deterministic counter, never reused within a run.
type SpanID uint64

// OpID identifies one distributed operation (a coordinated checkpoint,
// restart, or recovery). Like SpanID it is allocated from a deterministic
// counter; all spans of an op — on any node — share its OpID, which is
// what lets the critpath package reassemble one tree from a flat ring.
type OpID uint64

// SpanContext is the causal trace context carried across the wire: the
// operation a message belongs to and the span it was sent under. The
// zero SpanContext means "no traced operation" and is always safe to
// propagate.
type SpanContext struct {
	Op   OpID
	Span SpanID
}

// Zero reports whether the context carries no operation.
func (c SpanContext) Zero() bool { return c == SpanContext{} }

// Event is one trace record. At is virtual time; Node and Cat scope the
// event to a machine and subsystem; Span links Begin/End pairs; Value
// carries the sample for counters.
type Event struct {
	At   sim.Time
	Kind Kind
	Node string
	Cat  string
	Name string
	Span SpanID
	// Op and Parent place the event in a distributed operation's span
	// tree: Op names the operation, Parent the span this one is causally
	// under. Both are zero for unlinked events.
	Op     OpID
	Parent SpanID
	Value  float64
	NArgs  uint8
	Args   [MaxArgs]Arg
}

// ArgSlice returns the event's populated arguments.
func (ev *Event) ArgSlice() []Arg { return ev.Args[:ev.NArgs] }

// DefaultCapacity is the main ring's size when a cluster traces with no
// capacity of its own.
const DefaultCapacity = 1 << 16

// sampleEvery is how many fired events apart a tracer with a main ring
// samples the engine's dispatch counters.
const sampleEvery = 4096

type spanMeta struct {
	node, cat, name string
	op              OpID
	parent          SpanID
}

// Tracer collects events into a bounded ring. A nil *Tracer is valid and
// every method on it is a no-op, so components built without a cluster
// (unit-test rigs) need no checks at all.
type Tracer struct {
	engine *sim.Engine
	buf    []Event // nil when the tracer keeps no main ring
	total  uint64  // events ever emitted; buf index = total % len(buf)
	nextID SpanID
	nextOp OpID
	open   map[SpanID]spanMeta
	flight *flightRecorder
}

// New creates a tracer and attaches it to the engine as its trace sink,
// so trace.FromEngine finds it from any component. Every event feeds the
// flight recorder's per-node rings. A positive capacity also keeps a main
// ring of that many events for export and samples the engine's dispatch
// counters; zero keeps the flight recorder alone, and Len, Dropped and
// Events then report an empty ring.
func New(engine *sim.Engine, capacity int) *Tracer {
	t := &Tracer{
		engine: engine,
		open:   make(map[SpanID]spanMeta),
		flight: &flightRecorder{rings: make(map[string]*flightRing)},
	}
	engine.SetTraceSink(t)
	if capacity > 0 {
		t.buf = make([]Event, capacity)
		engine.SetStepHook(func() {
			if fired := engine.Fired(); fired%sampleEvery == 0 {
				t.Counter("sim", "sim", "events_fired", float64(fired))
				t.Counter("sim", "sim", "queue_depth", float64(engine.Pending()))
			}
		})
	}
	return t
}

// FromEngine returns the tracer attached to an engine, or nil if none is.
// The nil result is safe to use directly.
func FromEngine(e *sim.Engine) *Tracer {
	if e == nil {
		return nil
	}
	t, _ := e.TraceSink().(*Tracer)
	return t
}

func (t *Tracer) now() sim.Time {
	if t.engine != nil {
		return t.engine.Now()
	}
	return 0
}

func (t *Tracer) emit(ev *Event) {
	if t.buf != nil {
		t.buf[t.total%uint64(len(t.buf))] = *ev
		t.total++
	}
	t.flight.record(ev)
}

func setArgs(ev *Event, args []Arg) {
	n := len(args)
	if n > MaxArgs {
		n = MaxArgs
	}
	for i := 0; i < n; i++ {
		ev.Args[i] = args[i]
	}
	ev.NArgs = uint8(n)
}

// Instant records a point event.
func (t *Tracer) Instant(node, cat, name string, args ...Arg) {
	t.InstantCtx(SpanContext{}, node, cat, name, args...)
}

// InstantCtx records a point event linked under a trace context, so it
// renders inside the op's span tree rather than as a free-floating mark.
func (t *Tracer) InstantCtx(ctx SpanContext, node, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{At: t.now(), Kind: KindInstant, Node: node, Cat: cat, Name: name, Op: ctx.Op, Parent: ctx.Span}
	setArgs(&ev, args)
	t.emit(&ev)
}

// Counter records a numeric sample.
func (t *Tracer) Counter(node, cat, name string, value float64) {
	if t == nil {
		return
	}
	t.emit(&Event{At: t.now(), Kind: KindCounter, Node: node, Cat: cat, Name: name, Value: value})
}

// Begin opens a span and returns a handle whose End closes it. The zero
// Span (and any Span from a nil tracer) is inert. A plain Begin belongs
// to no distributed operation; use BeginOp/BeginChild for spans that
// should link into a cross-node tree.
func (t *Tracer) Begin(node, cat, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	return t.begin(SpanContext{}, node, cat, name, args)
}

// BeginOp opens the root span of a new distributed operation, allocating
// a fresh OpID from the tracer's deterministic counter.
func (t *Tracer) BeginOp(node, cat, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	t.nextOp++
	return t.begin(SpanContext{Op: t.nextOp}, node, cat, name, args)
}

// BeginChild opens a span under an existing trace context — typically
// one received off the wire, adopting the sender's operation on this
// node. A zero ctx degrades to a plain Begin.
func (t *Tracer) BeginChild(ctx SpanContext, node, cat, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	return t.begin(ctx, node, cat, name, args)
}

func (t *Tracer) begin(ctx SpanContext, node, cat, name string, args []Arg) Span {
	t.nextID++
	id := t.nextID
	t.open[id] = spanMeta{node: node, cat: cat, name: name, op: ctx.Op, parent: ctx.Span}
	ev := Event{At: t.now(), Kind: KindBegin, Node: node, Cat: cat, Name: name, Span: id, Op: ctx.Op, Parent: ctx.Span}
	setArgs(&ev, args)
	t.emit(&ev)
	return Span{t: t, id: id, op: ctx.Op}
}

// Span is a handle to an open span.
type Span struct {
	t  *Tracer
	id SpanID
	op OpID
}

// Context returns the trace context for work causally under this span.
// It remains valid after End — a reply sent as a span's last act still
// carries the right lineage.
func (s Span) Context() SpanContext {
	if s.t == nil {
		return SpanContext{}
	}
	return SpanContext{Op: s.op, Span: s.id}
}

// Active reports whether the span is real and still open.
func (s Span) Active() bool {
	if s.t == nil {
		return false
	}
	_, ok := s.t.open[s.id]
	return ok
}

// End closes the span. Ending an inert or already-ended span is a no-op,
// which lets cleanup paths End unconditionally.
func (s Span) End(args ...Arg) {
	t := s.t
	if t == nil {
		return
	}
	meta, ok := t.open[s.id]
	if !ok {
		return
	}
	delete(t.open, s.id)
	ev := Event{At: t.now(), Kind: KindEnd, Node: meta.node, Cat: meta.cat, Name: meta.name,
		Span: s.id, Op: meta.op, Parent: meta.parent}
	setArgs(&ev, args)
	t.emit(&ev)
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil || t.buf == nil {
		return 0
	}
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.buf == nil {
		return 0
	}
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// OpenSpans returns the number of spans begun but not yet ended.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// OpenSpanNames returns one "node/cat/name#id" label per open span,
// ordered by span id — the payload for an end-of-run leak report. Spans
// begun on any of the except nodes are left out.
func (t *Tracer) OpenSpanNames(except ...string) []string {
	if t == nil || len(t.open) == 0 {
		return nil
	}
	ids := make([]SpanID, 0, len(t.open))
	for id, m := range t.open {
		if !slices.Contains(except, m.node) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		m := t.open[id]
		out = append(out, fmt.Sprintf("%s/%s/%s#%d", m.node, m.cat, m.name, id))
	}
	return out
}

// Events returns the buffered events oldest-first. The slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil || t.buf == nil {
		return nil
	}
	n := uint64(len(t.buf))
	out := make([]Event, 0, t.Len())
	start := uint64(0)
	if t.total > n {
		start = t.total - n
	}
	for i := start; i < t.total; i++ {
		out = append(out, t.buf[i%n])
	}
	return out
}
