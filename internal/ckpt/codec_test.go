package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// has them. A pointer points at a filled value, and a map holds one
// entry: gob writes a map in iteration order, so only a map of at most
// one entry gives a value one encoding.
func fill(t testing.TB, v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), rng)
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(t, k, rng)
		fill(t, e, rng)
		v.Set(reflect.MakeMapWithSize(v.Type(), 1))
		v.SetMapIndex(k, e)
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

// TestECSetReaderMatchesGob holds DecodeECSet's reader to gob: on the
// encoding of every generated set and of sampleECSet it builds what a
// fresh gob.Decoder builds. It rejects every proper prefix of the encoding
// — cut whole, or cut inside the value with the message length fixed to
// match — and a byte after it, which gob's decoder left unread. Each of
// gobmemotest's damaged and hostile variations it rejects, or decodes to
// gob's value; encodings gob accepts but gob.Encoder never writes, it
// rejects.
func TestECSetReaderMatchesGob(t *testing.T) {
	fresh := func(b []byte) (*ECSet, error) {
		v := new(ECSet)
		return v, gob.NewDecoder(bytes.NewReader(b)).Decode(v)
	}
	for i, set := range append(generated[ECSet](t, 400), sampleECSet()) {
		b, err := set.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh(b)
		if err != nil {
			t.Fatalf("set %d: gob rejects its encoding: %v", i, err)
		}
		if got, err := parseECSet(b); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d: the reader builds %+v (%v), gob %+v", i, got, err, want)
		}
		for n := 0; n < len(b); n++ {
			if _, err := parseECSet(b[:n]); err == nil {
				t.Fatalf("set %d: accepted its first %d of %d bytes", i, n, len(b))
			}
		}
		fields, frame := valueFramer(t, ecSetCodec.Value, b)
		for k := 0; k < len(fields); k++ {
			if got, err := parseECSet(frame(fields[:k])); err == nil {
				t.Fatalf("set %d: accepted its value cut to %d of %d bytes: %+v", i, k, len(fields), got)
			}
		}
		if _, err := parseECSet(append(b[:len(b):len(b)], 0)); err == nil {
			t.Fatalf("set %d: accepted a byte after the value", i)
		}
	}
	for _, in := range gobmemotest.Inputs(t, sampleECSet()) {
		got, err := parseECSet(in.Bytes)
		if err != nil {
			continue
		}
		if want, gerr := fresh(in.Bytes); gerr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the reader builds %+v, gob %+v (%v)", in.Name, got, want, gerr)
		}
	}
	// gob's decoder also takes encodings gob.Encoder never writes. The
	// reader does not, so what it accepts re-encodes to itself.
	b, err := (&ECSet{Pod: "p"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, frame := valueFramer(t, ecSetCodec.Value, b)
	if _, err := parseECSet(frame([]byte{1, 1, 'p', 0})); err != nil {
		t.Fatalf("the reader rejects a re-framed good value: %v", err)
	}
	for name, fields := range map[string][]byte{
		"count wider than needed": {1, 0xff, 1, 'p', 0},
		"zero field sent":         {1, 1, 'p', 1, 0, 0},
		"empty slice sent":        {1, 1, 'p', 4, 0, 0},
		"byte after the struct":   {1, 1, 'p', 0, 0},
	} {
		in := frame(fields)
		if _, err := fresh(in); err != nil {
			t.Fatalf("%s: gob rejects it too: %v", name, err)
		}
		if got, err := parseECSet(in); err == nil {
			t.Errorf("%s: the reader accepted it as %+v", name, got)
		}
	}
}

// valueFramer splits b, an encoding by the codec whose Value is value,
// into its value's fields and a function that frames other fields as that
// value: b's descriptors, then a message length that fits them, the type
// id and the fields.
func valueFramer(t *testing.T, value func([]byte) ([]byte, []byte, error), b []byte) (fields []byte, frame func([]byte) []byte) {
	t.Helper()
	fields, _, err := value(b)
	if err != nil {
		t.Fatal(err)
	}
	msg := 0 // offset of the value, the stream's last message
	for {
		n, w := readGobUint(b[msg:])
		if msg+w+int(n) == len(b) {
			break
		}
		msg += w + int(n)
	}
	_, w := readGobUint(b[msg:])
	id := b[msg+w : len(b)-len(fields)]
	return fields, func(f []byte) []byte {
		c := appendUint(append([]byte(nil), b[:msg]...), uint64(len(id)+len(f)))
		return append(append(c, id...), f...)
	}
}

// filled returns a T whose every exported field, at every depth, is set:
// each number distinct and not zero (a negative or several bytes long
// where its type allows), each bool true, each string, slice and pointer
// filled. gob then sends every field, so a walk that misses one or
// misnumbers one reads something else.
func filled[T any](t *testing.T) *T {
	t.Helper()
	next := 0
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			set(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					set(v.Field(i))
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				set(v.Index(i))
			}
		case reflect.String:
			next++
			v.SetString(fmt.Sprint("s", next))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			next++
			v.SetInt(int64(next) << 32 * int64(1-2*(next%2)))
		case reflect.Uint8:
			next++
			v.SetUint(uint64(next%255 + 1))
		case reflect.Uint16, reflect.Uint32, reflect.Uint64:
			next++
			v.SetUint(uint64(next) << (8*v.Type().Size() - 16))
		default:
			t.Fatalf("filled: no value for a %v", v.Type())
		}
	}
	out := new(T)
	set(reflect.ValueOf(out).Elem())
	return out
}

// TestManifestReaderMatchesGob holds DecodeManifest to gob
// (gobmemotest.Reads) on a manifest with every field set (filled), one
// whose descriptors each hold one kind of socket, as a capture fills them,
// sampleManifest and the zero manifest. Encodings gob
// accepts but gob.Encoder never writes, it rejects.
func TestManifestReaderMatchesGob(t *testing.T) {
	all, sockets := filled[Manifest](t), filled[Manifest](t)
	for i := range sockets.Procs {
		for j := range sockets.Procs[i].FDs {
			fd := &sockets.Procs[i].FDs[j]
			switch 2*i + j {
			case 0:
				fd.Listener, fd.UDP = nil, nil
			case 1:
				fd.Conn, fd.UDP = nil, nil
			case 2:
				fd.Conn, fd.Listener = nil, nil
			default:
				fd.Conn, fd.Listener, fd.UDP = nil, nil, nil
			}
		}
	}
	gobmemotest.Reads(t, (*Manifest).Encode, DecodeManifest, all, sockets, sampleManifest(t), new(Manifest))
	// gob's decoder also takes encodings gob.Encoder never writes. The
	// reader does not, so what it accepts re-encodes to itself. The good
	// value is PodName "p", then Net, which is sent though it is zero.
	fresh := func(b []byte) (*Manifest, error) {
		v := new(Manifest)
		return v, gob.NewDecoder(bytes.NewReader(b)).Decode(v)
	}
	b, err := (&Manifest{PodName: "p"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	good, frame := valueFramer(t, manifestCodec.Value, b)
	if _, err := DecodeManifest(frame(good)); err != nil {
		t.Fatalf("the reader rejects a re-framed good value: %v", err)
	}
	net := good[4 : len(good)-1] // Net's fields and end, after its delta 6
	for name, fields := range map[string][]byte{
		"count wider than needed": slices.Concat([]byte{1, 0xff, 1, 'p', 6}, net, []byte{0}),
		"zero field sent":         slices.Concat([]byte{1, 1, 'p', 1, 0, 5}, net, []byte{0}),
		"struct field not sent":   {1, 1, 'p', 0},
		"empty slice sent":        slices.Concat([]byte{1, 1, 'p', 6}, net, []byte{2, 0, 0}),
		"byte after the struct":   slices.Concat(good, []byte{0}),
	} {
		in := frame(fields)
		if _, err := fresh(in); err != nil {
			t.Fatalf("%s: gob rejects it too: %v", name, err)
		}
		if got, err := DecodeManifest(in); err == nil {
			t.Errorf("%s: the reader accepted it as %+v", name, got)
		}
	}
}

// TestManifestDecodeAllocatesWhatItKeeps: DecodeManifest allocates the
// manifest and, of what it carries, each string, slice and pointed-to
// state once — none of gob's decoding machinery.
func TestManifestDecodeAllocatesWhatItKeeps(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	m := filled[Manifest](t)
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var carried func(v reflect.Value) int
	carried = func(v reflect.Value) (n int) {
		switch v.Kind() {
		case reflect.Pointer:
			return 1 + carried(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					n += carried(v.Field(i))
				}
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				n += carried(v.Index(i))
			}
			return n + 1
		case reflect.String:
			return 1
		}
		return n
	}
	want := float64(carried(reflect.ValueOf(m)))
	if got := testing.AllocsPerRun(20, func() {
		if _, err := DecodeManifest(b); err != nil {
			t.Fatal(err)
		}
	}); got != want {
		t.Errorf("decoding a manifest allocates %.0f times, want %.0f: itself and what it carries", got, want)
	}
}

// TestECSetCostsPerSetNotPerStripe: decoding a shard manifest allocates as
// many objects at 1,024 stripes as at 4, and planning one allocates a
// parity buffer per stripe plus a bounded rest.
func TestECSetCostsPerSetNotPerStripe(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	// The rest of a plan is the set, its hash array and stripe list, the
	// list of parity buffers and the plan — and the offer, whose list of
	// distinct hashes and the map that finds them grow by doubling: 18
	// objects at 4 stripes, 70 at 1,024 (Go 1.24).
	const planRest = 96
	p := ECParams{M: 4, R: 2}
	var decodes []float64
	for _, stripes := range []int{4, 1024} {
		s := stripedStore(stripes, p)
		plan, err := s.PlanECSave("ec", 1, p)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := plan.Set.Encode()
		if err != nil {
			t.Fatal(err)
		}
		planned := testing.AllocsPerRun(3, func() {
			if _, err := s.PlanECSave("ec", 1, p); err != nil {
				t.Fatal(err)
			}
		})
		decoded := testing.AllocsPerRun(20, func() {
			if _, err := DecodeECSet(blob); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d stripes: plan %.0f allocations, decode %.0f", stripes, planned, decoded)
		if planned > float64(stripes+planRest) {
			t.Errorf("%d stripes: a plan allocates %.0f objects, want at most one per stripe and %d more", stripes, planned, planRest)
		}
		decodes = append(decodes, decoded)
	}
	if decodes[0] != decodes[1] || decodes[1] > 5 {
		t.Errorf("a decode allocates %.0f objects at 4 stripes and %.0f at 1,024, want the same 5 at most", decodes[0], decodes[1])
	}
}

// TestImageHeadCodecIsFreshGob: an image's head is its gob encoding, in
// which sampleImage's pages, being unexported references, do not appear.
func TestImageHeadCodecIsFreshGob(t *testing.T) { codecContract(t, imageCodec, sampleImage()) }

// TestImageHeadReaderMatchesGob holds ReadImage's reader of the head to
// gob (gobmemotest.Reads) on a head with every field set, sampleImage's
// and the zero one.
func TestImageHeadReaderMatchesGob(t *testing.T) {
	encode := func(img *Image) ([]byte, error) { return memoEncode(imageCodec, img) }
	read := func(b []byte) (*Image, error) {
		img, n, err := imageCodec.Read(b)
		if err == nil && n != len(b) {
			return nil, fmt.Errorf("%d bytes after the head", len(b)-n)
		}
		return img, err
	}
	gobmemotest.Reads(t, encode, read, filled[Image](t), sampleImage(), new(Image))
}
