package trace

import (
	"fmt"
	"sort"
	"strings"

	"cruz/internal/sim"
)

// The flight recorder is the always-on half of the tracing plane: a small
// bounded ring of recent events per node that every tracer keeps, whether
// or not it keeps a main ring. When something goes wrong — an op aborts,
// a lease expires, recovery starts — DumpFlight freezes the window of
// events leading up to the trigger, turning a fault-injection run into a
// self-explaining artifact instead of a bare error string.
//
// Determinism: rings are keyed per node but every recorded event also
// gets a global monotonic sequence number, and dumps merge rings by that
// sequence — so a dump's bytes are a pure function of the seed, like
// every other export.

// The flight recorder's bounds (DESIGN §5).
const (
	// flightPerNode is how many events each node's ring retains.
	flightPerNode = 256
	// flightWindow is how far before the trigger a dump reaches: a full
	// lease timeout and then some.
	flightWindow = 500 * sim.Millisecond
	// flightMaxDumps bounds the dumps kept per run; later triggers are
	// counted but discarded.
	flightMaxDumps = 8
)

type flightEntry struct {
	seq uint64 // global emission order across all nodes
	ev  Event
}

type flightRing struct {
	buf   []flightEntry
	total uint64
}

type flightRecorder struct {
	seq          uint64
	rings        map[string]*flightRing
	order        []string // node names in first-emission order
	dumps        []*FlightDump
	dumpsDropped int
}

func (f *flightRecorder) record(ev *Event) {
	r := f.rings[ev.Node]
	if r == nil {
		r = &flightRing{buf: make([]flightEntry, flightPerNode)}
		f.rings[ev.Node] = r
		f.order = append(f.order, ev.Node)
	}
	f.seq++
	r.buf[r.total%uint64(len(r.buf))] = flightEntry{seq: f.seq, ev: *ev}
	r.total++
}

// FlightDump is one frozen pre-trigger window of events.
type FlightDump struct {
	At      sim.Time
	Trigger string // what fired the dump: op.fail, lease.expiry, recovery.start, ...
	Reason  string // trigger detail (op key, node name)
	Window  sim.Duration
	Events  []Event // merged across nodes in global emission order
}

// DumpFlight freezes the flight recorder: every retained event within
// flightWindow before now, merged across all nodes in emission order. The
// dump is returned and — up to flightMaxDumps — kept for FlightDumps.
// Nil-safe.
func (t *Tracer) DumpFlight(trigger, reason string) *FlightDump {
	if t == nil {
		return nil
	}
	f := t.flight
	d := &FlightDump{At: t.now(), Trigger: trigger, Reason: reason, Window: flightWindow}
	cutoff := d.At.Add(-flightWindow)
	var entries []flightEntry
	for _, node := range f.order {
		r := f.rings[node]
		n := uint64(len(r.buf))
		start := uint64(0)
		if r.total > n {
			start = r.total - n
		}
		for i := start; i < r.total; i++ {
			e := r.buf[i%n]
			if e.ev.At >= cutoff {
				entries = append(entries, e)
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	d.Events = make([]Event, len(entries))
	for i, e := range entries {
		d.Events[i] = e.ev
	}
	if len(f.dumps) < flightMaxDumps {
		f.dumps = append(f.dumps, d)
	} else {
		f.dumpsDropped++
	}
	// Mark the trigger in the main trace too (after the snapshot, so the
	// dump itself stays pre-trigger).
	t.Instant("sim", "flight", "dump", Str("trigger", trigger), Str("reason", reason))
	return d
}

// FlightDumps returns the dumps recorded so far, oldest first (at most
// flightMaxDumps).
func (t *Tracer) FlightDumps() []*FlightDump {
	if t == nil {
		return nil
	}
	return t.flight.dumps
}

// FlightDumpsDropped returns how many dumps were discarded because the
// flightMaxDumps bound was already reached.
func (t *Tracer) FlightDumpsDropped() int {
	if t == nil {
		return 0
	}
	return t.flight.dumpsDropped
}

// Format renders the dump as a header line plus the standard timeline.
func (d *FlightDump) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight dump @%v trigger=%s reason=%s window=%v events=%d\n",
		d.At, d.Trigger, d.Reason, d.Window, len(d.Events))
	WriteTimeline(&b, d.Events) //cruzvet:allow errdrop writes to a strings.Builder cannot fail
	return b.String()
}
