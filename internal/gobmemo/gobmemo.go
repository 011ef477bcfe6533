// Package gobmemo encodes and decodes values of one statically known type
// with encoding/gob, paying for gob's type machinery once per process
// instead of once per value — and producing, byte for byte, what a fresh
// gob.Encoder would.
//
// A fresh encoder's output for a value is P ‖ V: the type descriptors P,
// then the value message V. When no interface-typed field is reachable
// from the type, P does not depend on the value, and an encoder that has
// already sent P emits V alone. A Codec therefore keeps one long-lived
// gob.Encoder and gob.Decoder that have both seen P; Encode writes P
// followed by what the encoder emits, and Decode strips P and feeds the
// decoder only V. Nothing outside this package knows the split. For a
// decoder written for T, a walk over T with a Reader of gob's primitives,
// Value hands over the fields of V and rejects input that is not exactly
// P ‖ V.
//
// gob's type ids are process-global and assigned on first use, so P is
// derived at run time, on a Codec's first use, never stored.
package gobmemo

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sync"
)

// Codec is the memoised gob codec of T. It is safe for concurrent use, and
// its output is a function of its input alone.
type Codec[T any] struct {
	//cruzvet:allow nodeterminism one codec per type serves every cluster in the process, and tests run clusters in parallel goroutines; its output is a function of its input alone
	mu sync.Mutex

	// prefix is P; valueHdr is the encoded type id every value message of
	// T opens with, after its length.
	prefix, valueHdr []byte

	enc *gob.Encoder // has sent P; nil until first use and after an error
	out redirect     // where enc writes

	dec *gob.Decoder // has received P; nil until first use and after an error
	in  reader       // what dec reads
}

// New returns T's codec. It panics if an interface-typed field is reachable
// from T: gob describes an interface's concrete type in the middle of the
// value, so such a type has no value-independent prefix to split off.
func New[T any]() *Codec[T] {
	if path := Reaches(reflect.TypeOf((*T)(nil)).Elem(), reflect.Interface); path != "" {
		panic(fmt.Sprintf("gobmemo: %s is interface-typed; its gob descriptors depend on the value", path))
	}
	return &Codec[T]{}
}

// Reaches returns the path of the first type of kind k that gob would
// reach from t — t itself, or an element or exported field at any depth —
// or "" if there is none.
func Reaches(t reflect.Type, k reflect.Kind) string {
	return reaches(t, k, t.String(), map[reflect.Type]bool{})
}

func reaches(t reflect.Type, k reflect.Kind, path string, seen map[reflect.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if t.Kind() == k {
		return path
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reaches(t.Elem(), k, path, seen)
	case reflect.Map:
		if p := reaches(t.Key(), k, path+"[key]", seen); p != "" {
			return p
		}
		return reaches(t.Elem(), k, path, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				if p := reaches(f.Type, k, path+"."+f.Name, seen); p != "" {
					return p
				}
			}
		}
	}
	return ""
}

// redirect is the long-lived encoder's writer; to changes per call.
type redirect struct{ to io.Writer }

func (r *redirect) Write(p []byte) (int, error) { return r.to.Write(p) }

// reader serves b to a decoder. It implements io.ByteReader so that gob
// reads from it directly instead of through a bufio.Reader that would
// read ahead: off is then exactly how much the decoder consumed.
type reader struct {
	b   []byte
	off int
}

func (r *reader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *reader) ReadByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

// uintWidth is the width of the gob unsigned integer that starts with
// byte c: one byte below 128, else c is the negated count of the
// big-endian bytes that follow.
func uintWidth(c byte) int {
	if c < 0x80 {
		return 1
	}
	return 1 + 256 - int(c)
}

// primeEncoder makes c.enc an encoder that has sent P, deriving P and
// valueHdr the first time: an encoder's first output for the zero value
// is P ‖ V₀ and its second is V₀.
func (c *Codec[T]) primeEncoder() {
	var zero T
	var first, second bytes.Buffer
	enc := gob.NewEncoder(&c.out)
	for _, buf := range []*bytes.Buffer{&first, &second} {
		c.out.to = buf
		if err := enc.Encode(&zero); err != nil {
			panic(fmt.Sprintf("gobmemo: encode zero %T: %v", zero, err))
		}
	}
	c.out.to = nil
	prefix, ok := bytes.CutSuffix(first.Bytes(), second.Bytes())
	if !ok || len(prefix) == 0 || (c.prefix != nil && !bytes.Equal(prefix, c.prefix)) {
		panic(fmt.Sprintf("gobmemo: %T: encoder output does not split into descriptors and value", zero))
	}
	c.enc = enc
	if c.prefix == nil {
		v := second.Bytes()
		n := uintWidth(v[0])
		c.prefix, c.valueHdr = prefix, v[n:n+uintWidth(v[n])]
	}
}

// Encode writes v's gob encoding to w: the bytes gob.NewEncoder(w).Encode(v)
// would write.
func (c *Codec[T]) Encode(w io.Writer, v *T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.enc == nil {
		c.primeEncoder()
	}
	if _, err := w.Write(c.prefix); err != nil {
		return err
	}
	c.out.to = w
	err := c.enc.Encode(v)
	c.out.to = nil
	if err != nil {
		c.enc = nil
	}
	return err
}

// plain reports whether b is P followed by a value message of T — what
// Encode produces, and all the long-lived decoder may be shown. Anything
// else (bytes from another process or type, or a type definition placed
// after P) would add to or clash with the types the decoder knows.
func (c *Codec[T]) plain(b []byte) bool {
	if !bytes.HasPrefix(b, c.prefix) || len(b) == len(c.prefix) {
		return false
	}
	b = b[len(c.prefix):]
	n := uintWidth(b[0])
	return n <= len(b) && bytes.HasPrefix(b[n:], c.valueHdr)
}

// Decode parses one value of T from the front of b into v — as
// gob.NewDecoder(bytes.NewReader(b)).Decode(v) would — and returns how
// many bytes of b the value occupied.
func (c *Codec[T]) Decode(b []byte, v *T) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prefix == nil {
		c.primeEncoder()
	}
	if !c.plain(b) {
		r := reader{b: b}
		err := gob.NewDecoder(&r).Decode(v)
		return r.off, err
	}
	if c.dec == nil {
		// A new decoder reads P too, and is primed by it.
		c.in = reader{b: b}
		c.dec = gob.NewDecoder(&c.in)
	} else {
		c.in = reader{b: b, off: len(c.prefix)}
	}
	err := c.dec.Decode(v)
	if err != nil {
		// A failed Decode can leave the decoder holding part of a message.
		c.dec = nil
	}
	n := c.in.off
	c.in.b = nil
	return n, err
}
