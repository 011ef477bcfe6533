// Package gobmemotest holds the checks every memoised type runs against
// its gobmemo.Codec, and every reader of gob's bytes against gob. The
// reference throughout is a fresh gob.Encoder or gob.Decoder per value:
// the codec must write what the encoder writes, and read what the decoder
// reads of it — on good input — while taking nothing but what an encoder
// writes.
package gobmemotest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"cruz/internal/gobmemo"
)

// fresh is the reference encoding: a new encoder for one value.
func fresh[T any](t testing.TB, v *T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// freshDecode is the reference decoding: a new decoder for one value. It
// returns how many bytes the decoder consumed.
func freshDecode[T any](b []byte) (*T, int, error) {
	v := new(T)
	r := bytes.NewReader(b) // an io.ByteReader: gob does not read ahead
	err := gob.NewDecoder(r).Decode(v)
	return v, len(b) - r.Len(), err
}

// prefix is T's descriptor prefix P, derived independently of any Codec:
// every message of the zero value's fresh encoding but the last.
func prefix[T any](t testing.TB) []byte {
	t.Helper()
	b := fresh(t, new(T))
	msgs := messages(t, b)
	return b[:len(b)-len(msgs[len(msgs)-1])]
}

// Identity checks the contract on each value: the codec's encoding is the
// fresh encoder's byte for byte and starts with P whatever the value
// holds; Read makes of it what a fresh decoder makes; and Read reports
// exactly the encoding's length when more bytes follow.
// No value may hold a map of more than one entry: gob writes a map in
// iteration order, so such a value has no one encoding to compare.
func Identity[T any](t *testing.T, c *gobmemo.Codec[T], values ...*T) {
	t.Helper()
	p := prefix[T](t)
	for i, v := range values {
		want := fresh(t, v)
		if !bytes.HasPrefix(want, p) {
			t.Errorf("value %d: its fresh encoding does not start with the zero value's descriptors: the prefix depends on the value", i)
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf, v); err != nil {
			t.Errorf("value %d: encode: %v", i, err)
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("value %d: codec wrote %d bytes, a fresh encoder %d, and they differ", i, buf.Len(), len(want))
			continue
		}
		ref, _, err := freshDecode[T](buf.Bytes())
		if err != nil {
			t.Errorf("value %d: a fresh decoder rejects the codec's bytes: %v", i, err)
			continue
		}
		got, n, err := c.Read(append(want[:len(want):len(want)], "tail"...))
		if err != nil || n != len(want) {
			t.Errorf("value %d: codec decoded %d of %d bytes: %v", i, n, len(want), err)
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("value %d: codec and fresh decoder disagree:\n got %+v\nwant %+v", i, got, ref)
		}
	}
}

// gobUint is gob's unsigned integer encoding.
func gobUint(v uint64) []byte {
	if v < 128 {
		return []byte{byte(v)}
	}
	var b []byte
	for ; v > 0; v >>= 8 {
		b = append([]byte{byte(v)}, b...)
	}
	return append([]byte{byte(-len(b))}, b...)
}

// messages splits a gob stream into its length-prefixed messages.
func messages(t testing.TB, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		w, n := uintWidth(b[0]), uint64(b[0])
		if w > 1 {
			n = 0
			for _, c := range b[1:w] {
				n = n<<8 | uint64(c)
			}
		}
		end := w + int(n)
		if end > len(b) {
			t.Fatalf("gob stream ends inside a message")
		}
		out, b = append(out, b[:end]), b[end:]
	}
	return out
}

// foreignValue returns a value of a struct type no codec encodes, yet one
// that would decode into a T if a decoder knew its type id: its only
// field is T's first field of a basic type, set to a non-zero value.
func foreignValue[T any](t testing.TB) any {
	t.Helper()
	typ := reflect.TypeOf((*T)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v := reflect.New(reflect.StructOf([]reflect.StructField{{Name: f.Name, Type: f.Type}})).Elem()
		switch {
		case !f.IsExported():
			continue
		case v.Field(0).CanInt():
			v.Field(0).SetInt(1)
		case f.Type.Kind() == reflect.String:
			v.Field(0).SetString("foreign")
		default:
			continue
		}
		return v.Addr().Interface()
	}
	t.Fatalf("%v has no integer or string field to build a foreign type around", typ)
	return nil
}

// Input is one byte string to decode and whether a reader accepts it.
type Input struct {
	Name  string
	Bytes []byte
	Valid bool
}

// Inputs returns good's encoding and the damaged and hostile variations
// of it a reader must refuse. They are built with fresh encoders only, so
// they do not depend on the codec under test. Besides the good encoding,
// a fresh gob.Decoder accepts three of them: another type's value, and
// good's value or another type's behind a type definition added after P.
// Those are not P ‖ V, what an encoder of T writes, so a reader refuses
// them too.
func Inputs[T any](t testing.TB, good *T) []Input {
	t.Helper()
	full := fresh(t, good)
	p := prefix[T](t)
	v := full[len(p):]
	var foreign bytes.Buffer
	if err := gob.NewEncoder(&foreign).Encode(foreignValue[T](t)); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	other := messages(t, foreign.Bytes())
	otherDefs, otherValue := join(other[:len(other)-1]...), other[len(other)-1]
	return []Input{
		{"valid", full, true},
		{"zero-length", nil, false},
		{"descriptors-only", p, false},
		{"truncated-descriptors", p[:len(p)/2], false},
		{"truncated-value", join(p, v[:len(v)/2]), false},
		{"value-length-only", join(p, v[:1]), false},
		{"one-byte-short", full[:len(full)-1], false},
		{"length-overruns", join(p, gobUint(1<<20), v[1:]), false},
		{"no-descriptors", v, false},
		{"garbage", bytes.Repeat([]byte{0xff}, 64), false},
		{"another-type", join(otherDefs, otherValue), false},
		// Type definitions smuggled in behind P. Repeating one of P's own
		// redefines an id; a foreign one adds an id, and a value that names
		// the added id without defining it is unknown.
		{"repeated-definition", join(p, messages(t, p)[0], v), false},
		{"added-definition", join(p, otherDefs, v), false},
		{"value-of-added-type", join(p, otherValue), false},
		{"added-definition-then-its-value", join(p, otherDefs, otherValue), false},
	}
}

// Hostile reads every one of Inputs through the codec: each is accepted
// or rejected as its row says, without a panic, an accepted one as a
// fresh decoder reads it, and good's encoding read straight afterwards is
// what a fresh decoder makes of it.
func Hostile[T any](t *testing.T, c *gobmemo.Codec[T], good *T) {
	t.Helper()
	inputs := Inputs(t, good)
	full := inputs[0].Bytes
	want, _, err := freshDecode[T](full)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	for _, in := range inputs {
		ref, refN, refErr := freshDecode[T](in.Bytes)
		if in.Valid && refErr != nil {
			t.Fatalf("%s: a fresh decoder returns %v; the case is mislabelled", in.Name, refErr)
		}
		got, n, err := c.Read(in.Bytes)
		switch {
		case (err == nil) != in.Valid:
			t.Errorf("%s: codec returns %v, a fresh decoder %v", in.Name, err, refErr)
		case in.Valid && (n != refN || !reflect.DeepEqual(got, ref)):
			t.Errorf("%s: codec read %d bytes to %+v, a fresh decoder %d to %+v", in.Name, n, got, refN, ref)
		}
		if after, n, err := c.Read(full); err != nil || n != len(full) || !reflect.DeepEqual(after, want) {
			t.Errorf("after %s: the good encoding reads as %+v (%d bytes, %v), want %+v", in.Name, after, n, err, want)
		}
	}
}

// Hammer drives the codec from several goroutines at once — parallel
// subtests — each interleaving encodes, good reads and every hostile
// input, and checks every result against references computed beforehand.
// Run it under the race detector.
func Hammer[T any](t *testing.T, c *gobmemo.Codec[T], values ...*T) {
	t.Helper()
	type ref struct {
		bytes []byte
		value *T
	}
	refs := make([]ref, len(values))
	for i, v := range values {
		b := fresh(t, v)
		d, _, err := freshDecode[T](b)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		refs[i] = ref{b, d}
	}
	inputs := Inputs(t, values[0])
	t.Run("goroutines", func(t *testing.T) {
		for g := 0; g < 8; g++ {
			g := g
			t.Run(fmt.Sprint(g), func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				for i := 0; i < 200; i++ {
					k := (g + i) % len(values)
					buf.Reset()
					if err := c.Encode(&buf, values[k]); err != nil || !bytes.Equal(buf.Bytes(), refs[k].bytes) {
						t.Fatalf("encoding of value %d differs from a fresh encoder's (%v)", k, err)
					}
					in := inputs[(g+i)%len(inputs)]
					if _, _, err := c.Read(in.Bytes); (err == nil) != in.Valid {
						t.Fatalf("%s: codec returns %v", in.Name, err)
					}
					if got, _, err := c.Read(refs[k].bytes); err != nil || !reflect.DeepEqual(got, refs[k].value) {
						t.Fatalf("value %d reads as %+v (%v), want %+v", k, got, err, refs[k].value)
					}
				}
			})
		}
	})
}

// Reads holds read, a reader of what encode writes, to gob. On each
// value's encoding, P ‖ V, read builds what a fresh gob.Decoder builds,
// holding none of the bytes it read, and what it builds re-encodes to the
// same bytes — or, a map's entries reordered, to as many that read back
// the same. It rejects every proper prefix of the encoding, cut whole or
// cut inside the value with the message length fixed to match, the
// encoding followed by a byte, and the rearrangements of its messages that
// are not P ‖ V: either half alone, V twice, P twice, and P less its first
// definition. And it allocates exactly the value and what the value
// carries (carries).
func Reads[T any](t *testing.T, encode func(*T) ([]byte, error), read func([]byte) (*T, error), values ...*T) {
	t.Helper()
	for i, v := range values {
		b, err := encode(v)
		if err != nil {
			t.Fatalf("value %d: encode: %v", i, err)
		}
		want, _, err := freshDecode[T](b)
		if err != nil {
			t.Fatalf("value %d: a fresh decoder rejects its encoding: %v", i, err)
		}
		got, err := read(b)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("value %d: read builds\n%+v (%v), gob\n%+v", i, got, err, want)
		}
		flip(b)
		kept := !reflect.DeepEqual(got, want)
		flip(b)
		if kept {
			t.Fatalf("value %d: what read built changed with the bytes it was read from", i)
		}
		again, err := encode(got)
		if err != nil {
			t.Fatalf("value %d: what read builds does not re-encode: %v", i, err)
		}
		if !bytes.Equal(again, b) { // a map's entries in another order
			if back, err := read(again); len(again) != len(b) || err != nil || !reflect.DeepEqual(back, got) {
				t.Fatalf("value %d: what read builds re-encodes to %d other bytes than its %d, which read back as %+v (%v)", i, len(again), len(b), back, err)
			}
		}
		msgs := messages(t, b)
		p, last := bytes.Join(msgs[:len(msgs)-1], nil), msgs[len(msgs)-1]
		w := uintWidth(last[0])
		bad := map[string][]byte{
			"descriptors-only":     p,
			"value-only":           last,
			"value-twice":          join(b, last),
			"descriptors-twice":    join(p, b),
			"first-definition-cut": join(p[len(msgs[0]):], last),
			"byte-after":           join(b, []byte{0}),
		}
		for k := 0; k < len(b); k++ {
			bad[fmt.Sprint("first-", k)] = b[:k]
		}
		for k := w; k < len(last); k++ {
			bad[fmt.Sprint("value-cut-to-", k-w)] = join(p, gobUint(uint64(k-w)), last[w:k])
		}
		for name, in := range bad {
			if got, err := read(in); err == nil {
				t.Fatalf("value %d: read accepts %s as %+v", i, name, got)
			}
		}
		if raceBuild() {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := read(b); err != nil {
				t.Fatal(err)
			}
		})
		if carried := 1 + carries(reflect.ValueOf(got).Elem()); allocs != carried {
			t.Errorf("value %d: read allocates %.0f objects, want %.0f: the value and what it carries", i, allocs, carried)
		}
	}
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// flip complements every byte of b.
func flip(b []byte) {
	for k := range b {
		b[k] ^= 0xff
	}
}

// uintWidth is the width of the gob unsigned integer that starts with c.
func uintWidth(c byte) int {
	if c < 0x80 {
		return 1
	}
	return 1 + 256 - int(c)
}

// carries counts the objects v carries: each string, slice and pointer
// that is not empty or nil, and each map — itself and, if it holds any
// entries, the group of eight slots Go's maps start with — with what
// their elements carry in turn. A one-byte string costs nothing: Go
// converts bytes to it without allocating.
func carries(v reflect.Value) (n float64) {
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 1 {
			n = 1
		}
	case reflect.Pointer:
		if !v.IsNil() {
			n = 1 + carries(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			n = carries(v.Elem())
		}
	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		n = 1
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return n
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += carries(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				n += carries(v.Field(i))
			}
		}
	case reflect.Map:
		if v.IsNil() {
			return 0
		}
		n = float64(1 + min(v.Len(), 1))
		for it := v.MapRange(); it.Next(); {
			n += carries(it.Key()) + carries(it.Value())
		}
	}
	return n
}

// raceBuild reports whether the race detector is built in, under which
// allocation counts are not the plain build's.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
