package ckpt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cruz/internal/gobmemo"
	"cruz/internal/gobmemo/gobmemotest"
	"cruz/internal/mem"
)

// generated returns n random values of T, the zero value first. None of
// the memoised types reaches a map, so each value has one gob encoding.
func generated[T any](t *testing.T, n int) []*T {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	out := []*T{new(T)}
	for len(out) < n {
		p := new(T)
		fill(t, reflect.ValueOf(p).Elem(), rng)
		out = append(out, p)
	}
	return out
}

// fill sets v to a random value. Structs and slices are filled a field
// and an element at a time, exported fields only: the unexported ones (an
// image's pages, its cached encoding) are references gob never writes,
// and testing/quick, which fills everything else, refuses a struct that
// has them.
func fill(t *testing.T, v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), rng)
			}
		}
	case reflect.Slice:
		n := rng.Intn(8)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(t, v.Index(i), rng)
		}
	default:
		x, ok := quick.Value(v.Type(), rng)
		if !ok {
			t.Fatalf("quick cannot generate a %v", v.Type())
		}
		v.Set(x)
	}
}

// sampleManifest is the manifest of sampleImage.
func sampleManifest(t testing.TB) *Manifest {
	t.Helper()
	m, err := manifestFromImage(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampleECSet() *ECSet {
	h := func(i uint64) mem.PageHash { return mem.PageHash{Lo: i, Hi: ^i} }
	return &ECSet{Pod: "slm-0", Seq: 3, M: 2, R: 1, Chain: []int{3, 2},
		Stripes: []ECStripe{{Data: []mem.PageHash{h(1), h(2)}, Parity: []mem.PageHash{h(3)}}, {Data: []mem.PageHash{h(4)}, Parity: []mem.PageHash{h(5)}}}}
}

// codecContract runs the three checks every memoised type owes: its bytes
// are a fresh gob encoder's, hostile input leaves no trace in the shared
// decoder, and concurrent use is safe.
func codecContract[T any](t *testing.T, c *gobmemo.Codec[T], sample *T) {
	values := append(generated[T](t, 40), sample)
	t.Run("identity", func(t *testing.T) { gobmemotest.Identity(t, c, values...) })
	t.Run("hostile", func(t *testing.T) { gobmemotest.Hostile(t, c, sample) })
	t.Run("concurrent", func(t *testing.T) { gobmemotest.Hammer(t, c, values[len(values)-4:]...) })
}

func TestManifestCodecIsFreshGob(t *testing.T) { codecContract(t, manifestCodec, sampleManifest(t)) }
func TestECSetCodecIsFreshGob(t *testing.T)    { codecContract(t, ecSetCodec, sampleECSet()) }

// TestImageHeadCodecIsFreshGob: an image's head is its gob encoding, in
// which sampleImage's pages, being unexported references, do not appear.
func TestImageHeadCodecIsFreshGob(t *testing.T) { codecContract(t, imageCodec, sampleImage()) }
