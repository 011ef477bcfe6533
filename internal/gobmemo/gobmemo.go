// Package gobmemo encodes and decodes values of one statically known type
// in encoding/gob's format, paying for gob's type machinery once per
// process instead of once per value — and producing, byte for byte, what a
// fresh gob.Encoder would.
//
// A fresh encoder's output for a value is P ‖ V: the type descriptors P,
// then the value message V. When no interface-typed field is reachable
// from the type, P does not depend on the value, and an encoder that has
// already sent P emits V alone. A Codec therefore keeps one long-lived
// gob.Encoder that has seen P, and Encode writes P followed by what the
// encoder emits. Decoding needs no gob.Decoder: Read checks P and walks V
// by reflection over the type (Walker, walk.go) with a Reader of gob's
// primitives, and rejects input that is not exactly P ‖ V. For a decoder
// written by hand for T, Value hands over V's fields.
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

	walk *Walker // reads V
}

// New returns T's codec. It panics unless T is a struct, and if an
// interface-typed field is reachable from T: gob describes an interface's
// concrete type in the middle of the value, so such a type has no
// value-independent prefix to split off.
func New[T any]() *Codec[T] {
	return &Codec[T]{walk: NewWalker(reflect.TypeFor[T]())}
}

// redirect is the long-lived encoder's writer; to changes per call.
type redirect struct{ to io.Writer }

func (r *redirect) Write(p []byte) (int, error) { return r.to.Write(p) }

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

// Read parses the value of T that b opens with — P and a value message of
// T, what Encode writes — and returns it and how many bytes of b it
// occupied. The value is what a fresh gob.Decoder makes of those bytes,
// and holds none of them.
func (c *Codec[T]) Read(b []byte) (*T, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, rest, err := c.value(b)
	if err != nil {
		return nil, 0, err
	}
	p, err := c.walk.Read(v)
	if err != nil {
		return nil, 0, err
	}
	return p.Addr().Interface().(*T), len(b) - len(rest), nil
}
