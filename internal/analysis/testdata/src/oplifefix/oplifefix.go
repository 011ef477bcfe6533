// Package oplifefix is a cruzvet fixture for the oplifecycle analyzer:
// ops from (Table).Begin that can leak in the table (no Fail/Finish and
// no armed timeout on some path), discarded Begin results, orphaned
// Expect wait-sets, and the shapes that must stay silent — both-branch
// completion, armed timeouts, termination through summarized helpers,
// the ErrOpExists guard path, and event-driven ops that escape into
// wrapper structs.
package oplifefix

import (
	"errors"

	"cruz/internal/ctl"
	"cruz/internal/sim"
)

var errTimeout = errors.New("op timed out")

func LeakNoTerminator(tb *ctl.Table, cond bool) error {
	op, err := tb.Begin("job", "k1", 1) // want `op op from Begin neither completes \(Fail/Finish\) nor arms a timeout`
	if err != nil {
		return err
	}
	if cond {
		return nil
	}
	op.Finish()
	return nil
}

func DropOp(tb *ctl.Table) {
	_, err := tb.Begin("job", "k2", 1) // want `op from Begin discarded`
	if err != nil {
		return
	}
}

func DropErr(tb *ctl.Table) {
	op, _ := tb.Begin("job", "k3", 1) // want `Begin error discarded`
	op.Finish()
}

func ExpectOrphan(tb *ctl.Table) {
	op, err := tb.Begin("job", "k4", 1)
	if err != nil {
		return
	}
	op.Expect("orphan", "n1") // want `wait-set "orphan" is expected but no Arrive for it exists`
	op.ArmTimeout(sim.Duration(10), errTimeout)
}

// LeakDeferInOneBranch defers the Finish on one branch only.
func LeakDeferInOneBranch(tb *ctl.Table, keep bool) {
	op, err := tb.Begin("job", "k10", 1) // want `op op from Begin neither completes \(Fail/Finish\) nor arms a timeout`
	if err != nil {
		return
	}
	if keep {
		defer op.Finish()
	}
}

// OkBothBranches completes the op on every path after the guard.
func OkBothBranches(tb *ctl.Table, cond bool) {
	op, err := tb.Begin("job", "k5", 1)
	if err != nil {
		return
	}
	if cond {
		op.Fail(errTimeout)
		return
	}
	op.Finish()
}

// OkTimeout arms eventual termination instead of completing inline.
func OkTimeout(tb *ctl.Table) {
	op, err := tb.Begin("job", "k6", 1)
	if err != nil {
		return
	}
	op.ArmTimeout(sim.Duration(100), errTimeout)
}

// finishIt / finishDeep are the interprocedural summary cases: passing
// the op to them must count as termination, one and two levels deep.
func finishIt(op *ctl.Op)   { op.Finish() }
func finishDeep(op *ctl.Op) { finishIt(op) }

func OkHelper(tb *ctl.Table) {
	op, err := tb.Begin("job", "k7", 1)
	if err != nil {
		return
	}
	finishDeep(op)
}

// wrapper mimics core's rootOp/agentOp/replOp: the op escapes into
// a struct and is completed event-driven — the analyzer must be silent.
type wrapper struct{ op *ctl.Op }

func OkEscape(tb *ctl.Table) *wrapper {
	op, err := tb.Begin("job", "k8", 1)
	if err != nil {
		return nil
	}
	return &wrapper{op: op}
}

// OkExpectMatched pairs the wait-set with an Arrive handler elsewhere
// in the package (below): whole-program matching keeps it silent.
func OkExpectMatched(tb *ctl.Table, peer string) {
	op, err := tb.Begin("job", "k9", 1)
	if err != nil {
		return
	}
	op.Expect("acks", peer)
	op.ArmTimeout(sim.Duration(10), errTimeout)
}

type ackOp struct{ *ctl.Op }

func HandleAck(tb *ctl.Table, key, peer string) {
	if op := ctl.Find[ackOp](tb, key); op != nil {
		op.Arrive("acks", peer)
	}
}
