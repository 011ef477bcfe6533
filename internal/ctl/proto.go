package ctl

import (
	"errors"
	"slices"
	"strings"

	"cruz/internal/sim"
	"cruz/internal/trace"
)

// ErrOpExists is returned by Table.Begin when the key is busy.
var ErrOpExists = errors.New("ctl: an operation is already in progress for this key")

// Table is the shared op-lifecycle state machine used by the coordinator
// and the agents. Every distributed operation — checkpoint, restart,
// replication, recovery — is one Op in a Table: created with Begin,
// tracked under a unique key, guarded by an optional timeout, advanced
// by named wait-sets, and torn down exactly once through Fail or Finish.
// Keeping this machinery in one place means the daemons carry only their
// domain logic (what to send, what to roll back), not their own per-op
// maps and abort plumbing.
type Table struct {
	engine *sim.Engine
	// ops holds the active ops sorted by key, kept so as ops begin and
	// end: a lookup is a binary search, and Each walks it as it is.
	ops   []*Op
	begun uint64 // ops begun so far
}

// NewTable creates an empty op table on the given engine.
func NewTable(engine *sim.Engine) *Table {
	return &Table{engine: engine}
}

// search returns where key's op is in ops, or would be, and whether it is.
func (t *Table) search(key string) (int, bool) {
	return slices.BinarySearchFunc(t.ops, key, func(o *Op, key string) int { return strings.Compare(o.Key, key) })
}

// Begin registers a new op under key, or fails with ErrOpExists if the
// key is busy. Kind is a label ("checkpoint", "replicate", ...) carried
// for dispatch and diagnostics.
func (t *Table) Begin(kind, key string, seq int) (*Op, error) {
	i, busy := t.search(key)
	if busy {
		return nil, ErrOpExists
	}
	t.begun++
	op := &Op{
		Kind:  kind,
		Key:   key,
		Seq:   seq,
		table: t,
		t0:    t.engine.Now(),
		num:   t.begun,
	}
	t.ops = slices.Insert(t.ops, i, op)
	return op, nil
}

// Find returns the owner's record for the active op under key — what its
// Data holds — or nil when the key is free or held by another kind of op.
func Find[T any](t *Table, key string) *T {
	if i, ok := t.search(key); ok {
		if d, ok := t.ops[i].Data.(*T); ok {
			return d
		}
	}
	return nil
}

// Len returns the number of active ops (the leak check for abort paths).
func (t *Table) Len() int { return len(t.ops) }

// Each visits the ops active when it is called in sorted key order —
// deterministic, which matters because visitors send messages — skipping
// one that ended before its turn. A visitor may begin and end ops: an op
// begun during the walk is not visited, and the walk resumes after the
// key it visited last, wherever that now sits.
func (t *Table) Each(fn func(*Op)) {
	last := t.begun
	for i := 0; i < len(t.ops); {
		op := t.ops[i]
		if op.num <= last {
			fn(op)
		}
		if i < len(t.ops) && t.ops[i] == op {
			i++
			continue
		}
		var at bool
		if i, at = t.search(op.Key); at {
			i++
		}
	}
}

// Op is one in-flight distributed operation.
type Op struct {
	// Kind labels the operation; Key is its table identity; Seq the
	// checkpoint sequence it concerns (0 when not applicable).
	Kind string
	Key  string
	Seq  int
	// Data points back at the owner's per-op record (measurements,
	// domain state). The table never inspects it.
	Data any

	table    *Table
	num      uint64 // the op's place in its table's count of ops begun
	t0       sim.Time
	timeout  *sim.Event
	err      error
	done     bool
	waits    map[string]map[string]bool
	onFail   func(*Op, error)
	onFinish func(*Op, error)
}

// Started returns when the op was begun.
func (o *Op) Started() sim.Time { return o.t0 }

// Active reports whether the op has neither finished nor failed.
func (o *Op) Active() bool { return !o.done }

// Err returns the failure, if any.
func (o *Op) Err() error { return o.err }

// Aborted reports whether the op failed. Async continuations (disk
// completions, CPU slots) must check it before touching op state.
func (o *Op) Aborted() bool { return o.err != nil }

// OnFail installs the rollback/fan-out hook, invoked exactly once if the
// op fails, before OnFinish.
func (o *Op) OnFail(fn func(*Op, error)) { o.onFail = fn }

// OnFinish installs the completion hook, invoked exactly once when the
// op ends — err nil on success, the failure otherwise.
func (o *Op) OnFinish(fn func(*Op, error)) { o.onFinish = fn }

// ArmTimeout fails the op with err if it is still active after d
// (d <= 0 disables). Re-arming replaces the previous timer.
func (o *Op) ArmTimeout(d sim.Duration, err error) {
	o.cancelTimeout()
	if d <= 0 || o.done {
		return
	}
	o.timeout = o.table.engine.Schedule(d, func() {
		o.timeout = nil // fired: the engine recycles it
		o.Fail(err)
	})
}

func (o *Op) cancelTimeout() {
	if o.timeout != nil {
		o.table.engine.Cancel(o.timeout)
		o.timeout = nil
	}
}

// Expect adds member to the named wait-set (the barrier of replies the
// op is waiting on).
func (o *Op) Expect(set, member string) {
	if o.waits == nil {
		o.waits = make(map[string]map[string]bool)
	}
	if o.waits[set] == nil {
		o.waits[set] = make(map[string]bool)
	}
	o.waits[set][member] = true
}

// Arrive removes member from the named wait-set, reporting whether it
// was actually outstanding (false filters duplicate or stray replies).
func (o *Op) Arrive(set, member string) bool {
	if !o.waits[set][member] {
		return false
	}
	delete(o.waits[set], member)
	return true
}

// Cleared reports whether the named wait-set is empty.
func (o *Op) Cleared(set string) bool { return len(o.waits[set]) == 0 }

// Fail aborts the op: idempotent, invokes OnFail then OnFinish, cancels
// the timeout, and removes the op from the table. An op abort is a
// flight-recorder trigger — the dump preserves the event window that led
// up to it.
func (o *Op) Fail(err error) {
	if o.done || o.err != nil {
		return
	}
	o.err = err
	reason := o.Kind + "/" + o.Key
	if err != nil {
		reason += ": " + err.Error()
	}
	trace.FromEngine(o.table.engine).DumpFlight("op.fail", reason)
	if o.onFail != nil {
		o.onFail(o, err)
	}
	o.complete(err)
}

// Finish completes the op successfully (idempotent).
func (o *Op) Finish() { o.complete(nil) }

func (o *Op) complete(err error) {
	if o.done {
		return
	}
	o.done = true
	o.cancelTimeout()
	if i, ok := o.table.search(o.Key); ok {
		o.table.ops = slices.Delete(o.table.ops, i, i+1)
	}
	if o.onFinish != nil {
		o.onFinish(o, err)
	}
}
