package coord

import "testing"

func TestGroupSizeFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 4: 2, 8: 3, 9: 3, 64: 8, 100: 10, 256: 16}
	for n, want := range cases {
		if got := GroupSizeFor(n); got != want {
			t.Errorf("GroupSizeFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPlanPartition(t *testing.T) {
	groups := Plan(10, 3, nil)
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(groups))
	}
	next := 0
	for gi, g := range groups {
		if g.Leader != g.Members[0] {
			t.Errorf("group %d leader %d, want first member %d", gi, g.Leader, g.Members[0])
		}
		for _, m := range g.Members {
			if m != next {
				t.Fatalf("group %d member %d, want contiguous %d", gi, m, next)
			}
			next++
		}
	}
	if next != 10 {
		t.Fatalf("partition covered %d members, want 10", next)
	}
}

// TestPlanDeterministic pins that two identical calls yield the same
// tree — the property the byte-identical trace tests lean on.
func TestPlanDeterministic(t *testing.T) {
	a := Plan(64, 8, nil)
	b := Plan(64, 8, nil)
	if len(a) != len(b) {
		t.Fatal("plans differ in group count")
	}
	for i := range a {
		if a[i].Leader != b[i].Leader || len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("group %d differs between identical plans", i)
		}
	}
}

// TestLeaderPromotion pins the deterministic replacement rule: liveness
// never moves group boundaries, only the leadership — to the next live
// member in group order.
func TestLeaderPromotion(t *testing.T) {
	dead := map[int]bool{0: true}
	alive := func(i int) bool { return !dead[i] }
	groups := Plan(9, 3, alive)
	if groups[0].Leader != 1 {
		t.Fatalf("group 0 leader %d after member 0 died, want 1", groups[0].Leader)
	}
	// Boundaries unchanged versus the all-alive plan.
	base := Plan(9, 3, nil)
	for i := range groups {
		if len(groups[i].Members) != len(base[i].Members) ||
			groups[i].Members[0] != base[i].Members[0] {
			t.Fatalf("liveness moved group %d boundaries", i)
		}
	}
	if base[0].Leader != 0 {
		t.Fatalf("all-alive group 0 leader %d, want 0", base[0].Leader)
	}
	// The rule holds down a group, including the whole-group-dead case.
	dead[1] = true
	if got := Plan(9, 3, alive)[0].Leader; got != 2 {
		t.Fatalf("group 0 leader after two deaths = %d, want 2", got)
	}
	dead[2] = true
	if got := Plan(9, 3, alive)[0].Leader; got != -1 {
		t.Fatalf("leader of a fully dead group = %d, want -1", got)
	}
}

// TestRootMessagesPerPhase: the root exchanges one message per group in
// each protocol phase (versus n for the flat fan-out), and the last group
// takes the remainder.
func TestRootMessagesPerPhase(t *testing.T) {
	if got := len(Plan(256, 16, nil)); got != 16 {
		t.Fatalf("256/16 plan root fan-out = %d, want 16", got)
	}
	if got := len(Plan(257, 16, nil)); got != 17 {
		t.Fatalf("257/16 plan root fan-out = %d, want 17", got)
	}
}
