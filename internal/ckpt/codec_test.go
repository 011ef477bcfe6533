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
		v, ok := quick.Value(reflect.TypeOf((*T)(nil)).Elem(), rng)
		if !ok {
			t.Fatalf("quick cannot generate a %T", *new(T))
		}
		p := new(T)
		reflect.ValueOf(p).Elem().Set(v)
		out = append(out, p)
	}
	return out
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

// sampleHead is sampleImage as Encode hands it to gob: page bytes emptied.
func sampleHead() *Image {
	img := sampleImage()
	for i := range img.Processes {
		img.Processes[i].Memory.PageData = nil
	}
	return img
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

func TestManifestCodecIsFreshGob(t *testing.T)  { codecContract(t, manifestCodec, sampleManifest(t)) }
func TestECSetCodecIsFreshGob(t *testing.T)     { codecContract(t, ecSetCodec, sampleECSet()) }
func TestImageHeadCodecIsFreshGob(t *testing.T) { codecContract(t, imageCodec, sampleHead()) }
