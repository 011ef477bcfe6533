package ctl

import (
	"errors"
	"testing"

	"cruz/internal/sim"
)

var errBoom = errors.New("boom")

func TestTableBeginBusyAndRelease(t *testing.T) {
	tb := NewTable(sim.NewEngine(1))
	op, err := tb.Begin("checkpoint", "job", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Begin("restart", "job", 2); !errors.Is(err, ErrOpExists) {
		t.Fatalf("duplicate begin: %v", err)
	}
	type record struct{ *Op }
	rec := &record{op}
	op.Data = rec
	if tb.Len() != 1 || Find[record](tb, "job") != rec {
		t.Fatal("table bookkeeping wrong")
	}
	op.Finish()
	if tb.Len() != 0 || Find[record](tb, "job") != nil {
		t.Fatal("finish did not release the key")
	}
	if _, err := tb.Begin("restart", "job", 2); err != nil {
		t.Fatalf("re-begin after finish: %v", err)
	}
}

func TestOpWaitSets(t *testing.T) {
	tb := NewTable(sim.NewEngine(1))
	op, _ := tb.Begin("checkpoint", "job", 1)
	op.Expect("done", "a")
	op.Expect("done", "b")
	op.Expect("cont", "a")
	if op.Cleared("done") {
		t.Fatal("done cleared while members outstanding")
	}
	if !op.Arrive("done", "a") {
		t.Fatal("expected member rejected")
	}
	if op.Arrive("done", "a") {
		t.Fatal("duplicate arrival accepted")
	}
	if op.Arrive("done", "zzz") {
		t.Fatal("stray arrival accepted")
	}
	if op.Cleared("done") {
		t.Fatal("done cleared early")
	}
	op.Arrive("done", "b")
	if !op.Cleared("done") || op.Cleared("cont") {
		t.Fatal("wait-set state wrong after arrivals")
	}
	if !op.Cleared("never-expected") {
		t.Fatal("unknown set should read as cleared")
	}
}

func TestOpFailIsIdempotentAndOrdersHooks(t *testing.T) {
	tb := NewTable(sim.NewEngine(1))
	op, _ := tb.Begin("checkpoint", "job", 1)
	var order []string
	op.OnFail(func(_ *Op, err error) { order = append(order, "fail:"+err.Error()) })
	op.OnFinish(func(_ *Op, err error) { order = append(order, "finish") })
	op.Fail(errBoom)
	op.Fail(errors.New("second"))
	op.Finish()
	if len(order) != 2 || order[0] != "fail:boom" || order[1] != "finish" {
		t.Fatalf("hook order = %v", order)
	}
	if !op.Aborted() || op.Active() || !errors.Is(op.Err(), errBoom) {
		t.Fatal("failed op state wrong")
	}
	if tb.Len() != 0 {
		t.Fatal("failed op leaked in table")
	}
}

func TestOpTimeoutFiresAndFinishCancels(t *testing.T) {
	e := sim.NewEngine(1)
	tb := NewTable(e)
	op, _ := tb.Begin("checkpoint", "job", 1)
	var failed error
	op.OnFinish(func(_ *Op, err error) { failed = err })
	op.ArmTimeout(10*sim.Millisecond, errBoom)
	e.RunFor(20 * sim.Millisecond)
	if !errors.Is(failed, errBoom) {
		t.Fatalf("timeout did not fail the op: %v", failed)
	}

	op2, _ := tb.Begin("checkpoint", "job2", 1)
	fired := false
	op2.OnFinish(func(_ *Op, err error) { fired = err != nil })
	op2.ArmTimeout(10*sim.Millisecond, errBoom)
	op2.Finish()
	e.RunFor(20 * sim.Millisecond)
	if fired {
		t.Fatal("timeout fired after Finish")
	}
}

func TestEachVisitsSortedAndSeesLiveState(t *testing.T) {
	tb := NewTable(sim.NewEngine(1))
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if _, err := tb.Begin("op", k, 1); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	tb.Each(func(o *Op) { keys = append(keys, o.Key) })
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", keys, want)
		}
	}
}
