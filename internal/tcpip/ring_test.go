package tcpip

import (
	"bytes"
	"math/rand"
	"testing"
)

// wrapped reports whether the queued bytes straddle the end of the
// buffer.
func (r *Ring) wrapped() bool { return r.head+r.n > len(r.buf) }

// linear returns the unread bytes, oldest first.
func (r *Ring) linear() []byte {
	a, b := r.span(0, r.n)
	return append(append([]byte{}, a...), b...)
}

// TestRingMatchesSliceModel drives a Ring and a plain slice through the
// same random operations and requires identical observable behaviour,
// including across wrap-around and growth while wrapped.
func TestRingMatchesSliceModel(t *testing.T) {
	wraps, growsWrapped := 0, 0
	// Many short lives: a ring does its growing early, so fresh rings are
	// what exercise growth while wrapped.
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Ring
		var model []byte
		var next byte
		for op := 0; op < 500; op++ {
			size := rng.Intn(3000)
			if rng.Intn(8) == 0 {
				size = rng.Intn(40000) // occasionally force growth
			}
			kind := rng.Intn(7)
			if len(model) > 1<<16 && kind < 2 {
				kind = 2 // keep the queue (and the test's copying) bounded
			}
			switch kind {
			case 0, 1: // write
				p := make([]byte, size)
				for i := range p {
					p[i] = next
					next++
				}
				wasWrapped, capBefore := r.wrapped(), len(r.buf)
				r.Write(p)
				model = append(model, p...)
				if wasWrapped && len(r.buf) > capBefore {
					growsWrapped++
				}
			case 2, 5: // read
				got := make([]byte, size)
				n := r.Peek(got)
				r.Discard(n)
				want := min(size, len(model))
				if n != want || !bytes.Equal(got[:n], model[:want]) {
					t.Fatalf("seed %d op %d: Read(%d) = %d bytes, model %d, or contents differ", seed, op, size, n, want)
				}
				model = model[want:]
			case 3: // peek
				got := make([]byte, size)
				n := r.Peek(got)
				want := min(size, len(model))
				if n != want || !bytes.Equal(got[:n], model[:want]) {
					t.Fatalf("seed %d op %d: Peek(%d) = %d bytes, model %d, or contents differ", seed, op, size, n, want)
				}
			case 4, 6: // discard
				want := min(size, len(model))
				if n := r.Discard(size); n != want {
					t.Fatalf("seed %d op %d: Discard(%d) = %d, model %d", seed, op, size, n, want)
				}
				model = model[want:]
			}
			if r.n != len(model) {
				t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, r.n, len(model))
			}
			if lin := r.linear(); !bytes.Equal(lin, model) {
				t.Fatalf("seed %d op %d: the unread bytes differ from the model (%d bytes)", seed, op, len(model))
			}
			if r.wrapped() {
				wraps++
			}
		}
	}
	if wraps < 100 || growsWrapped < 10 {
		t.Fatalf("%d wrapped states, %d growths while wrapped: the run barely exercised them", wraps, growsWrapped)
	}
	t.Logf("%d wrapped states, %d growths while wrapped", wraps, growsWrapped)
}

// TestRingSettlesAtHighWater checks the property the TCP queues rely on:
// once a ring has held its maximum, filling and draining it again
// allocates nothing.
func TestRingSettlesAtHighWater(t *testing.T) {
	var r Ring
	chunk := make([]byte, 1460)
	sink := make([]byte, 4096)
	cycle := func() {
		for r.n+len(chunk) <= 65536 {
			r.Write(chunk)
		}
		for r.n > 100 { // never quite empty, so the head keeps moving
			r.Discard(r.Peek(sink))
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a warmed ring allocates %.1f times per fill-and-drain cycle", avg)
	}
}
