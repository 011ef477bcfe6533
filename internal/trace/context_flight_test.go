package trace

import (
	"strings"
	"testing"

	"cruz/internal/sim"
)

// step advances virtual time to the next scheduled tick.
func step(e *sim.Engine) { e.Step() }

func TestOpContextPropagation(t *testing.T) {
	_, tr := newTestTracer(64)

	op1 := tr.BeginOp("svc", "core", "checkpoint")
	op2 := tr.BeginOp("svc", "core", "recovery")
	c1, c2 := op1.Context(), op2.Context()
	if c1.Op == 0 || c2.Op == 0 || c1.Op == c2.Op {
		t.Fatalf("op ids not distinct/nonzero: %v %v", c1, c2)
	}
	if c1.Zero() || (SpanContext{}.Zero()) != true {
		t.Fatal("Zero() misreports")
	}

	// A child — possibly on another node — adopts the op and parents
	// under the originating span.
	child := tr.BeginChild(c1, "node0", "core", "agent.checkpoint")
	cc := child.Context()
	if cc.Op != c1.Op {
		t.Fatalf("child op = %d, want %d", cc.Op, c1.Op)
	}
	grand := tr.BeginChild(cc, "node0", "phase", "quiesce")
	grand.End()
	child.End()
	op2.End()
	op1.End()

	// The emitted events carry the linkage.
	var beginChild, endChild, beginGrand *Event
	evs := tr.Events()
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Kind == KindBegin && ev.Name == "agent.checkpoint":
			beginChild = ev
		case ev.Kind == KindEnd && ev.Span == child.Context().Span:
			endChild = ev
		case ev.Kind == KindBegin && ev.Name == "quiesce":
			beginGrand = ev
		}
	}
	if beginChild == nil || beginChild.Op != c1.Op || beginChild.Parent != c1.Span {
		t.Fatalf("child begin linkage wrong: %+v", beginChild)
	}
	if endChild == nil || endChild.Op != c1.Op {
		t.Fatalf("child end lost op: %+v", endChild)
	}
	if beginGrand == nil || beginGrand.Parent != cc.Span || beginGrand.Op != c1.Op {
		t.Fatalf("grandchild linkage wrong: %+v", beginGrand)
	}
}

func TestSpanContextValidAfterEnd(t *testing.T) {
	_, tr := newTestTracer(64)
	op := tr.BeginOp("svc", "core", "checkpoint")
	ctx := op.Context()
	op.End()
	if got := op.Context(); got != ctx {
		t.Fatalf("context after End = %v, want %v", got, ctx)
	}
	// Replies sent after a span ends still land in its tree.
	tr.InstantCtx(op.Context(), "svc", "core", "commit")
	evs := tr.Events()
	last := evs[len(evs)-1]
	if last.Op != ctx.Op || last.Parent != ctx.Span {
		t.Fatalf("post-end instant linkage wrong: %+v", last)
	}
}

func TestOpenSpanNames(t *testing.T) {
	_, tr := newTestTracer(64)
	a := tr.Begin("node0", "core", "leaky")
	b := tr.Begin("node1", "phase", "hung")
	done := tr.Begin("node0", "core", "fine")
	done.End()
	names := tr.OpenSpanNames()
	if len(names) != 2 {
		t.Fatalf("open = %v, want 2 entries", names)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "leaky") || !strings.Contains(joined, "hung") {
		t.Fatalf("names = %v", names)
	}
	if n := tr.OpenSpanNames("node1"); len(n) != 1 || !strings.Contains(n[0], "node0/core/leaky") {
		t.Fatalf("open except node1 = %v, want node0's alone", n)
	}
	a.End()
	b.End()
	if n := tr.OpenSpanNames(); n != nil {
		t.Fatalf("expected none open, got %v", n)
	}
}

func TestFlightOnlyMode(t *testing.T) {
	e := sim.NewEngine(1)
	tr := New(e, 0)
	for i := 0; i < 10; i++ {
		tr.Instant("node0", "core", "tick")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatalf("ring-less tracer kept a main ring: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	d := tr.DumpFlight("op.fail", "checkpoint/j")
	if d == nil || len(d.Events) != 10 {
		t.Fatalf("dump = %+v, want 10 events", d)
	}
	if d.Trigger != "op.fail" || d.Reason != "checkpoint/j" {
		t.Fatalf("dump labels wrong: %+v", d)
	}
}

func TestFlightWindowAndOrder(t *testing.T) {
	e := sim.NewEngine(1)
	tr := New(e, 64)
	// Interleave emissions from two nodes across virtual time.
	for i := 0; i < 12; i++ {
		e.Schedule(50*sim.Millisecond, func() {})
		tr.Instant("node0", "core", "a")
		tr.Instant("node1", "core", "b")
		step(e)
	}
	// Events emitted before each step land at the pre-step timestamp, so
	// 0, 50, ..., 550 ms; now = 600 ms and the 500 ms window reaches back
	// to 100 ms, keeping the ten pairs from 100 to 550 ms.
	d := tr.DumpFlight("test", "window")
	for _, ev := range d.Events {
		if ev.At < d.At.Add(-d.Window) {
			t.Fatalf("event at %v outside window (dump at %v)", ev.At, d.At)
		}
	}
	if len(d.Events) != 20 {
		t.Fatalf("window kept %d events, want 20", len(d.Events))
	}
	// Merged across nodes in emission order: a,b,a,b.
	for i, ev := range d.Events {
		want := "a"
		if i%2 == 1 {
			want = "b"
		}
		if ev.Name != want {
			t.Fatalf("event %d = %s, want %s (order not global)", i, ev.Name, want)
		}
	}
	if got := d.Format(); !strings.Contains(got, "trigger=test") {
		t.Fatalf("dump format lacks trigger:\n%s", got)
	}
}

func TestFlightPerNodeBound(t *testing.T) {
	e := sim.NewEngine(1)
	tr := New(e, 1024)
	for i := 0; i < flightPerNode+16; i++ {
		tr.Counter("node0", "core", "tick", float64(i))
	}
	d := tr.DumpFlight("test", "bound")
	if len(d.Events) != flightPerNode {
		t.Fatalf("per-node ring kept %d, want %d", len(d.Events), flightPerNode)
	}
	if first, last := d.Events[0].Value, d.Events[flightPerNode-1].Value; first != 16 || last != flightPerNode+15 {
		t.Fatalf("ring kept wrong tail: first=%v last=%v", first, last)
	}
}

func TestFlightDumpCap(t *testing.T) {
	e := sim.NewEngine(1)
	tr := New(e, 64)
	tr.Instant("node0", "core", "x")
	for i := 0; i < flightMaxDumps+3; i++ {
		tr.DumpFlight("test", "n")
	}
	if got := len(tr.FlightDumps()); got != flightMaxDumps {
		t.Fatalf("dumps kept = %d, want %d", got, flightMaxDumps)
	}
	if got := tr.FlightDumpsDropped(); got != 3 {
		t.Fatalf("dumps dropped = %d, want 3", got)
	}
}

func TestFlightDumpEmitsTriggerInstant(t *testing.T) {
	_, tr := newTestTracer(64)
	tr.Instant("node0", "core", "x")
	d := tr.DumpFlight("lease.expiry", "node node1")
	// The trigger instant lands in the main trace but not in the dump
	// (the dump is strictly pre-trigger).
	for _, ev := range d.Events {
		if ev.Cat == "flight" {
			t.Fatalf("dump contains its own trigger: %+v", ev)
		}
	}
	evs := tr.Events()
	last := evs[len(evs)-1]
	if last.Cat != "flight" || last.Name != "dump" {
		t.Fatalf("main trace lacks trigger instant: %+v", last)
	}
}
