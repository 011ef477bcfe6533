// Package gobmemotest holds the checks every memoised type runs against
// its gobmemo.Codec. The reference throughout is a fresh gob.Encoder or
// gob.Decoder per value: the codec must be indistinguishable from it, on
// good input and bad.
package gobmemotest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
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

// prefix derives T's descriptor prefix P the way the package comment
// defines it — independently of any Codec: what one encoder writes for
// the zero value the first time, less what it writes the second time.
func prefix[T any](t testing.TB) []byte {
	t.Helper()
	var once, twice bytes.Buffer // P ‖ V₀ and P ‖ V₀ ‖ V₀
	for n, buf := range []*bytes.Buffer{&once, &twice} {
		enc := gob.NewEncoder(buf)
		for i := 0; i <= n; i++ {
			if err := enc.Encode(new(T)); err != nil {
				t.Fatalf("reference encode: %v", err)
			}
		}
	}
	p, ok := bytes.CutSuffix(once.Bytes(), twice.Bytes()[once.Len():])
	if !ok || len(p) == 0 {
		t.Fatalf("%T: a fresh encoding does not end with the value message", *new(T))
	}
	return p
}

// Identity checks the contract on each value: the codec's encoding is the
// fresh encoder's byte for byte and starts with P whatever the value
// holds; each side decodes the other's output to deep-equal values; and
// Decode reports exactly the encoding's length when more bytes follow.
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
		got := new(T)
		n, err := c.Decode(append(want[:len(want):len(want)], "tail"...), got)
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
		w, n := 1, uint64(b[0])
		if b[0] >= 128 {
			w, n = 1+256-int(b[0]), 0
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

// Input is one byte string to decode and whether a decoder accepts it.
type Input struct {
	Name  string
	Bytes []byte
	Valid bool
}

// Inputs returns good's encoding and the damaged and hostile variations
// of it a shared decoder must survive. They are built with fresh
// encoders only, so they do not depend on the codec under test.
func Inputs[T any](t testing.TB, good *T) []Input {
	t.Helper()
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
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
		{"another-type", join(otherDefs, otherValue), true},
		// Type definitions smuggled in behind P. Repeating one of P's own
		// redefines an id; a foreign one adds an id, after which a value
		// still decodes — and must leave no trace: a later value that
		// names the added id without defining it is as unknown as it is to
		// a fresh decoder.
		{"repeated-definition", join(p, messages(t, p)[0], v), false},
		{"added-definition", join(p, otherDefs, v), true},
		{"value-of-added-type", join(p, otherValue), false},
		{"added-definition-then-its-value", join(p, otherDefs, otherValue), true},
	}
}

// Hostile decodes every one of Inputs through the codec: each is accepted
// or rejected as a fresh decoder would, without a panic, and good's
// encoding decoded straight afterwards — by a decoder the bad input may
// have left in any state — is what a fresh decoder makes of it.
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
		if (refErr == nil) != in.Valid {
			t.Fatalf("%s: a fresh decoder returns %v; the case is mislabelled", in.Name, refErr)
		}
		got := new(T)
		n, err := c.Decode(in.Bytes, got)
		switch {
		case (err == nil) != in.Valid:
			t.Errorf("%s: codec returns %v, a fresh decoder %v", in.Name, err, refErr)
		case in.Valid && (n != refN || !reflect.DeepEqual(got, ref)):
			t.Errorf("%s: codec decoded %d bytes to %+v, a fresh decoder %d to %+v", in.Name, n, got, refN, ref)
		}
		after := new(T)
		if n, err := c.Decode(full, after); err != nil || n != len(full) || !reflect.DeepEqual(after, want) {
			t.Errorf("after %s: the good encoding decodes to %+v (%d bytes, %v), want %+v", in.Name, after, n, err, want)
		}
	}
}

// Hammer drives the codec from several goroutines at once — parallel
// subtests — each interleaving encodes, good decodes and every hostile
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
					if _, err := c.Decode(in.Bytes, new(T)); (err == nil) != in.Valid {
						t.Fatalf("%s: codec returns %v", in.Name, err)
					}
					got := new(T)
					if _, err := c.Decode(refs[k].bytes, got); err != nil || !reflect.DeepEqual(got, refs[k].value) {
						t.Fatalf("value %d decodes to %+v (%v), want %+v", k, got, err, refs[k].value)
					}
				}
			})
		}
	})
}
