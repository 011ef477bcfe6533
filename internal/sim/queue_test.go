package sim

import "testing"

// TestQueueIsFIFOAcrossWrapAndGrowth checks Queue against a slice model
// through pushes and pops that wrap the circular array and grow it while
// wrapped, and that popped slots stop referencing their values.
func TestQueueIsFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q Queue[*int]
	var model []*int
	next := 0
	push := func(k int) {
		for ; k > 0; k-- {
			v := new(int)
			*v = next
			next++
			if got := q.Push(v); *got != v {
				t.Fatalf("Push returned a slot holding %v, want %v", *got, v)
			}
			model = append(model, v)
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if got := q.Pop(); got != model[0] {
				t.Fatalf("Pop = %d, want %d", *got, *model[0])
			}
			model = model[1:]
		}
	}
	check := func() {
		if q.Len() != len(model) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(model))
		}
		for i, v := range model {
			if *q.At(i) != v {
				t.Fatalf("At(%d) = %d, want %d", i, **q.At(i), *v)
			}
		}
		live := 0
		for _, v := range q.buf {
			if v != nil {
				live++
			}
		}
		if live != len(model) {
			t.Fatalf("%d slots reference a value, %d are queued", live, len(model))
		}
	}
	for _, step := range []struct{ push, pop int }{
		{5, 3}, {6, 4}, {3, 0}, // wrapped in the first array of 8
		{9, 2}, // grows while wrapped
		{20, 25}, {7, 0}, {0, 8}, {40, 30}, {0, 10},
	} {
		push(step.push)
		check()
		pop(step.pop)
		check()
	}
	// Steady state: a queue at its high-water capacity allocates nothing.
	vals := append([]*int(nil), model...)
	if avg := testing.AllocsPerRun(50, func() {
		for _, v := range vals {
			q.Push(v)
		}
		for range vals {
			q.Pop()
		}
	}); avg != 0 {
		t.Fatalf("a warm queue allocates %.1f times per fill and drain, want 0", avg)
	}
}
