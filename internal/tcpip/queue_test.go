package tcpip

import (
	"bytes"
	"math/rand"
	"testing"
)

// wrapped reports whether the queue's copied bytes straddle the end of
// its ring.
func (q *byteQueue) wrapped() bool { return q.ring.wrapped() }

// TestByteQueueMatchesSliceModel drives a byteQueue and a plain slice
// through the same random mix of copied and referenced writes — the
// referenced ones often window-sized pieces of one array, as SendParts
// hands a part over — and requires the same bytes from every read path.
// Slices handed out by take must hold their bytes for good, though the
// queue goes on copying bytes in; a take stops short only at copied bytes
// its buffer has no room for; and a cut segment's copied runs must lie in
// the buffer it was given.
func TestByteQueueMatchesSliceModel(t *testing.T) {
	merged, refHeads, spanning := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q byteQueue
		var model []byte
		var next byte
		fill := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				p[i] = next
				next++
			}
			return p
		}
		var part []byte // the array referenced writes walk through
		var taken, takenWant [][]byte
		for op := 0; op < 400; op++ {
			size := rng.Intn(3000) + 1
			switch rng.Intn(8) {
			case 0: // copied write
				p := fill(size)
				q.write(p)
				model = append(model, p...)
			case 1, 2: // referenced write: the next piece of the current part
				if len(part) == 0 {
					part = fill(rng.Intn(20000) + 1)
				}
				k := min(size, len(part))
				runs := q.runs.Len()
				q.writeRef(part[:k])
				if q.runs.Len() == runs {
					merged++
				}
				model = append(model, part[:k]...)
				part = part[k:]
			case 3: // read
				got := make([]byte, size)
				n := q.read(got)
				want := min(size, len(model))
				if n != want || !bytes.Equal(got[:n], model[:n]) {
					t.Fatalf("seed %d op %d: read(%d) = %d bytes, model %d, or contents differ", seed, op, size, n, want)
				}
				model = model[n:]
			case 4: // cut: a segment, as the runs it spans
				n := min(size, mss, len(model))
				runs, copied := q.shape(n)
				spans := make([]span, runs)
				buf := make([]byte, copied)
				q.cut(n, spans, buf)
				var got []byte
				for _, r := range spans {
					got = append(got, r.b...)
					if r.ref {
						refHeads++
					}
				}
				if !bytes.Equal(got, model[:n]) || n > 0 && copied > 0 && &buf[0] != &firstCopied(spans)[0] {
					t.Fatalf("seed %d op %d: cut(%d) differs from the model, or its copied runs are not in buf", seed, op, n)
				}
				if runs > 1 {
					spanning++
				}
				model = model[n:]
			case 5: // take into a buffer that may fill up
				buf := make([]byte, 0, rng.Intn(4000))
				pieces, buf, n := q.take(nil, buf, size)
				if n > min(size, len(model)) || !bytes.Equal(bytes.Join(pieces, nil), model[:n]) {
					t.Fatalf("seed %d op %d: take(%d) differs from the model", seed, op, n)
				}
				if n < min(size, len(model)) && (len(buf) != cap(buf) || q.runs.At(0).ref != nil) {
					t.Fatalf("seed %d op %d: take(%d) stopped at %d with room in its buffer", seed, op, size, n)
				}
				if len(taken) > 64 { // check the most recent ones only
					taken, takenWant = taken[:0], takenWant[:0]
				}
				for _, p := range pieces {
					taken = append(taken, p)
					takenWant = append(takenWant, append([]byte(nil), p...))
				}
				model = model[n:]
			case 6: // own, now and then: the bytes stay, the references go
				if rng.Intn(10) > 0 {
					break
				}
				q.own()
				if refRuns(&q) != 0 {
					t.Fatalf("seed %d op %d: own left %d referenced runs", seed, op, refRuns(&q))
				}
			case 7: // peek
				got := make([]byte, size)
				n := q.peek(got)
				if n != min(size, len(model)) || !bytes.Equal(got[:n], model[:n]) {
					t.Fatalf("seed %d op %d: peek(%d) differs from the model", seed, op, size)
				}
			}
			for i := range taken {
				if !bytes.Equal(taken[i], takenWant[i]) {
					t.Fatalf("seed %d op %d: a taken slice was overwritten", seed, op)
				}
			}
			if q.Len() != len(model) || !bytes.Equal(q.appendTo(nil), model) {
				t.Fatalf("seed %d op %d: queue holds %d bytes, model %d, or contents differ", seed, op, q.Len(), len(model))
			}
		}
	}
	if merged < 1000 || refHeads < 500 || spanning < 200 {
		t.Fatalf("%d merged referenced writes, %d runs sliced by reference, %d segments spanning runs: the run barely exercised them",
			merged, refHeads, spanning)
	}
	t.Logf("%d merged referenced writes, %d runs sliced by reference, %d segments spanning runs", merged, refHeads, spanning)
}

// firstCopied returns the first copied run's bytes among spans.
func firstCopied(spans []span) []byte {
	for _, r := range spans {
		if !r.ref {
			return r.b
		}
	}
	return nil
}

// TestByteQueueMergesOnlyContinuations: a referenced write joins the
// tail run only when it starts where that run ends in the same array.
func TestByteQueueMergesOnlyContinuations(t *testing.T) {
	a := make([]byte, 100)
	b := make([]byte, 100)
	var q byteQueue
	q.writeRef(a[:40])
	q.writeRef(a[40:70]) // continues a: merged
	q.writeRef(b[70:])   // same offsets, other array: a new run
	q.writeRef(a[80:])   // a again, but not where the tail ends: a new run
	q.write(a[:10])      // copied: a new run
	q.write(a[:10])      // copied after copied: merged
	if got := q.runs.Len(); got != 4 {
		t.Fatalf("%d runs, want 4", got)
	}
	if r := q.runs.At(0); &r.ref[0] != &a[0] || len(r.ref) != 70 {
		t.Fatalf("first run is %d bytes, want a[:70] by reference", len(r.ref))
	}
	capped := a[:50:50]
	var p byteQueue
	p.writeRef(capped)
	p.writeRef(a[50:]) // capacity says the tail cannot reach it
	if p.runs.Len() != 2 {
		t.Fatalf("a run grew past its slice's capacity")
	}
}
