package trace

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"cruz/internal/sim"
)

func newTestTracer(capacity int) (*sim.Engine, *Tracer) {
	e := sim.NewEngine(1)
	return e, New(e, capacity)
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Instant("n", "c", "x")
	tr.Counter("n", "c", "x", 1)
	sp := tr.Begin("n", "c", "x")
	if sp.Active() {
		t.Fatal("nil tracer span reports active")
	}
	sp.End()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.OpenSpans() != 0 {
		t.Fatal("nil tracer reports nonzero state")
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
}

func TestFromEngine(t *testing.T) {
	e := sim.NewEngine(1)
	if tr := FromEngine(e); tr != nil {
		t.Fatal("expected nil tracer from bare engine")
	}
	tr := New(e, 0)
	if got := FromEngine(e); got != tr {
		t.Fatalf("FromEngine = %p, want %p", got, tr)
	}
}

func TestRingWraparound(t *testing.T) {
	e, tr := newTestTracer(8)
	for i := 0; i < 20; i++ {
		e.Schedule(sim.Duration(i)*sim.Millisecond, func() {})
	}
	i := 0
	for e.Step() {
		tr.Counter("n", "c", "tick", float64(i))
		i++
	}
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events len = %d, want 8", len(evs))
	}
	// The surviving events are the newest 12..19, in order.
	for j, ev := range evs {
		if want := float64(12 + j); ev.Value != want {
			t.Fatalf("event %d value = %v, want %v", j, ev.Value, want)
		}
		if j > 0 && evs[j].At < evs[j-1].At {
			t.Fatalf("events out of order at %d: %v < %v", j, evs[j].At, evs[j-1].At)
		}
	}
}

func TestNestedSpans(t *testing.T) {
	e, tr := newTestTracer(DefaultCapacity)
	outer := tr.Begin("node0", "test", "outer", Str("k", "v"))
	var inner Span
	e.Schedule(sim.Millisecond, func() {
		inner = tr.Begin("node0", "test", "inner")
	})
	e.Schedule(2*sim.Millisecond, func() {
		inner.End(Int("bytes", 42))
	})
	e.Schedule(3*sim.Millisecond, func() {
		outer.End()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d after all ends, want 0", tr.OpenSpans())
	}
	evs := tr.Events()
	// Begin/End pairs must match by span id with End.At >= Begin.At, and
	// the End must carry the Begin's identity (node/cat/name).
	begins := make(map[SpanID]Event)
	for _, ev := range evs {
		switch ev.Kind {
		case KindBegin:
			begins[ev.Span] = ev
		case KindEnd:
			b, ok := begins[ev.Span]
			if !ok {
				t.Fatalf("end without begin: %+v", ev)
			}
			if ev.At < b.At {
				t.Fatalf("end before begin: %+v", ev)
			}
			if ev.Node != b.Node || ev.Cat != b.Cat || ev.Name != b.Name {
				t.Fatalf("end identity mismatch: begin %+v end %+v", b, ev)
			}
			delete(begins, ev.Span)
		}
	}
	if len(begins) != 0 {
		t.Fatalf("%d begins without ends", len(begins))
	}
	// Idempotent End: a second End must not emit another event.
	n := tr.Len()
	outer.End()
	if tr.Len() != n {
		t.Fatal("double End emitted an event")
	}
	if outer.Active() {
		t.Fatal("ended span reports active")
	}
}

// chromeTrace mirrors the Chrome trace-event JSON schema the exporter
// must produce.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Ph    string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		ID    string         `json:"id"`
		Scope string         `json:"scope"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestChromeTraceExport(t *testing.T) {
	e, tr := newTestTracer(DefaultCapacity)
	sp := tr.Begin("node0", "phase", "write", Int("bytes", 1024))
	e.Schedule(5*sim.Millisecond, func() {
		tr.Instant("node0", "tcp", "rto", Str("conn", "a->b"))
		tr.Counter("node1", "sim", "queue_depth", 3)
		sp.End()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}
	var kinds = map[string]int{}
	for _, ev := range ct.TraceEvents {
		kinds[ev.Ph]++
		switch ev.Ph {
		case "b", "e":
			if ev.ID == "" {
				t.Fatalf("async event without id: %+v", ev)
			}
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
		}
	}
	for _, ph := range []string{"b", "e", "i", "C", "M"} {
		if kinds[ph] == 0 {
			t.Fatalf("no %q events in export: %v", ph, kinds)
		}
	}
	// The begin event must carry its args.
	found := false
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "b" && ev.Name == "write" {
			found = true
			if ev.Args["bytes"] != float64(1024) {
				t.Fatalf("begin args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("write begin event missing")
	}
}

func TestTimelineExport(t *testing.T) {
	e, tr := newTestTracer(DefaultCapacity)
	sp := tr.Begin("node0", "phase", "capture")
	e.Schedule(sim.Millisecond, func() { sp.End() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"capture", "node0", "phase"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestTracerTimelineReportsOverflow: a tracer renders the events its ring
// still holds, oldest first, and ends with a footer counting the older
// events the ring overflowed past — and with no footer when none were.
func TestTracerTimelineReportsOverflow(t *testing.T) {
	_, tr := newTestTracer(4)
	for i := 0; i < 6; i++ {
		tr.Instant("node0", "core", "ev"+strconv.Itoa(i), Int("i", int64(i)))
	}
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{"ev2 i=2", "ev3 i=3", "ev4 i=4", "ev5 i=5", "# dropped 2 older events (ring overflow)"}
	if len(lines) != len(want) {
		t.Fatalf("timeline has %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, w := range want {
		if !strings.HasSuffix(lines[i], w) {
			t.Errorf("line %d = %q, want it to end in %q", i, lines[i], w)
		}
	}

	_, tr = newTestTracer(4)
	tr.Instant("node0", "core", "only")
	buf.Reset()
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Count(out, "\n") != 1 || strings.Contains(out, "dropped") {
		t.Fatalf("timeline of a ring that never overflowed:\n%s", out)
	}
}

func TestStepHookCounters(t *testing.T) {
	e := sim.NewEngine(1)
	tr := New(e, DefaultCapacity)
	for i := 0; i < 2*sampleEvery; i++ {
		e.Schedule(sim.Duration(i+1)*sim.Millisecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var fired, depth int
	for _, ev := range tr.Events() {
		if ev.Kind != KindCounter {
			continue
		}
		switch ev.Name {
		case "events_fired":
			fired++
		case "queue_depth":
			depth++
		}
	}
	if fired == 0 || depth == 0 {
		t.Fatalf("step hook emitted fired=%d depth=%d samples", fired, depth)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	e, tr := newTestTracer(DefaultCapacity)
	op := tr.Begin("node0", "core", "agent.checkpoint")
	q := tr.Begin("node0", PhaseCat, "quiesce")
	e.Schedule(2*sim.Millisecond, func() {
		q.End()
		w := tr.Begin("node0", PhaseCat, "write")
		e.Schedule(8*sim.Millisecond, func() {
			w.End()
			op.End()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rep := PhaseBreakdown(tr.Events())
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	if rep.Rows[0].Phase != "quiesce" || rep.Rows[1].Phase != "write" {
		t.Fatalf("phase order = %q, %q", rep.Rows[0].Phase, rep.Rows[1].Phase)
	}
	if rep.Rows[0].MeanMs != 2 || rep.Rows[1].MeanMs != 8 {
		t.Fatalf("phase means = %v, %v", rep.Rows[0].MeanMs, rep.Rows[1].MeanMs)
	}
	if rep.OpCount != 1 || rep.OpMeanMs != 10 {
		t.Fatalf("op stats = %d, %v", rep.OpCount, rep.OpMeanMs)
	}
	if !strings.Contains(rep.Format(), "end-to-end") {
		t.Fatalf("report missing end-to-end row:\n%s", rep.Format())
	}
}
