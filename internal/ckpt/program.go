package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"cruz/internal/gobmemo"
	"cruz/internal/kernel"
)

// A process's "CPU state" is its program value, saved as what
//
//	gob.NewEncoder(w).Encode(&progHolder{P: program})
//
// writes. For a program of concrete type T those bytes are
//
//	P_T ‖ uint(len W) ‖ W
//
// P_T is every type definition the encoder sends: progHolder's, then T's
// and those of the types T reaches. gob folds M_T — progHolder's type id,
// the field delta of P and T's registered name, the part of the value it
// had begun when T's definitions fell due — into the first of T's
// definition messages. W is the rest of the value,
//
//	T's type id ‖ uint(len V) ‖ V ‖ 0
//
// where V is T's value message and the 0 ends progHolder. With no
// interface reachable from T, P_T depends on T alone, and an encoder that
// has already sent it writes a value as
//
//	uint(len M_T + len W) ‖ M_T ‖ W
//
// So each registered type has one progCodec holding a long-lived encoder
// that has seen P_T: encoding is emitting P_T and re-framing what the
// encoder writes. Decoding is checking P_T, the lengths and the type id,
// and walking V (gobmemo.Walker), which takes only what an encoder
// writes. gob's type ids are process-global and assigned on first use, so
// P_T is derived on a codec's first use, never at registration: deriving
// it earlier would number the types in another order and change the bytes
// of every image head.

// progHolder lets gob encode the Program interface value.
type progHolder struct {
	P kernel.Program
}

// progCodec is the memoised codec of one registered program type.
type progCodec struct {
	typ  reflect.Type
	name string // the name gob registered typ under, which M_T carries

	//cruzvet:allow nodeterminism one codec per program type serves every cluster in the process, and tests run clusters in parallel goroutines; its output is a function of its input alone
	mu sync.Mutex

	prefix  []byte // P_T
	msgHdr  []byte // M_T
	valueID []byte // typ's type id, which W opens with

	enc  *gob.Encoder // has sent P_T; nil until first use and after an error
	out  bytes.Buffer // what enc writes
	hold progHolder   // the value enc works on, so none escapes per call
	walk *gobmemo.Walker
}

// programs holds a codec per registered program type, in registration
// order. Only RegisterProgram, at init time, appends to it.
var programs []*progCodec

// RegisterProgram must be called (once, at init time) for every concrete
// Program type that will be checkpointed, so its state can travel through
// gob. This mirrors the real-world requirement that checkpointable code
// be compiled into the restoring binary. It panics on a type gobmemo
// cannot walk (gobmemo.NewWalker): one an interface-typed field is
// reachable from, for gob would describe that field's concrete type in
// the middle of the value, so the state would have no encoding prefix of
// its own type alone.
func RegisterProgram(p kernel.Program) {
	t := reflect.TypeOf(p)
	w := gobmemo.NewWalker(t)
	gob.Register(p)
	if programFor(t) == nil {
		programs = append(programs, &progCodec{typ: t, name: gobName(t), walk: w})
	}
}

// gobName is the name gob.Register gives a type: for a named type its
// import path and name, for any other — a pointer to a named type
// included — its String form.
func gobName(t reflect.Type) string {
	if t.Name() != "" && t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	return t.String()
}

func programFor(t reflect.Type) *progCodec {
	for _, c := range programs {
		if c.typ == t {
			return c
		}
	}
	return nil
}

// encodeProgram returns p's saved state.
func encodeProgram(p kernel.Program) ([]byte, error) {
	c := programFor(reflect.TypeOf(p))
	if c == nil {
		return nil, fmt.Errorf("program type %T is not registered (ckpt.RegisterProgram)", p)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, err := c.value(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(c.prefix)+1+8+len(w)) // a gob uint takes at most 1+8 bytes
	return append(appendUint(append(out, c.prefix...), uint64(len(w))), w...), nil
}

// decodeProgram returns the program whose saved state is b. It accepts
// exactly what encodeProgram writes, up to the order of a map's entries.
func decodeProgram(b []byte) (kernel.Program, error) {
	// M_T, and with it the name, opens the message after progHolder's
	// definition.
	r := gobmemo.NewReader(b)
	r.Bytes()
	m := gobmemo.NewReader(r.Bytes())
	m.Int()
	m.Uint()
	name := m.Bytes()
	i := slices.IndexFunc(programs, func(c *progCodec) bool { return c.name == string(name) })
	if i < 0 {
		return nil, fmt.Errorf("state of no registered program type (named %.40q)", name)
	}
	c := programs[i]
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decode(b)
}

// prime makes c.enc an encoder that has sent P_T, deriving P_T, M_T and
// the type id the first time from its first two encodings of the zero
// value, P_T ‖ uint(len W₀) ‖ W₀ and then uint(len M_T + len W₀) ‖ M_T ‖ W₀.
func (c *progCodec) prime() error {
	zero := reflect.New(c.typ).Elem()
	if c.typ.Kind() == reflect.Pointer {
		zero = reflect.New(c.typ.Elem())
	}
	c.hold.P = zero.Interface().(kernel.Program)
	defer func() { c.hold.P = nil }()
	enc := gob.NewEncoder(&c.out)
	c.out.Reset()
	if err := enc.Encode(&c.hold); err != nil {
		return err
	}
	fresh := bytes.Clone(c.out.Bytes())
	c.out.Reset()
	if err := enc.Encode(&c.hold); err != nil {
		return err
	}
	// W₀ is the last message of fresh, and P_T every one before it.
	r, at := gobmemo.NewReader(fresh), 0
	var w0 []byte
	for r.Len() > 0 && r.Err() == nil {
		at = len(fresh) - r.Len()
		w0 = r.Bytes()
	}
	pr := gobmemo.NewReader(c.out.Bytes())
	msgHdr, ok := bytes.CutSuffix(pr.Bytes(), w0)
	id := gobmemo.NewReader(w0)
	id.Int()
	if r.Err() != nil || pr.Done() != nil || !ok || len(msgHdr) == 0 || id.Err() != nil ||
		c.prefix != nil && !bytes.Equal(fresh[:at], c.prefix) {
		return fmt.Errorf("ckpt: program %v: encoder output does not split into descriptors and value", c.typ)
	}
	c.enc = enc
	if c.prefix == nil {
		c.prefix, c.msgHdr = fresh[:at], bytes.Clone(msgHdr)
		c.valueID = w0[:len(w0)-id.Len()]
	}
	return nil
}

// value encodes p with the primed encoder and returns its W, which lasts
// until the codec's next use.
func (c *progCodec) value(p kernel.Program) ([]byte, error) {
	if c.enc == nil {
		if err := c.prime(); err != nil {
			return nil, err
		}
	}
	c.out.Reset()
	c.hold.P = p
	err := c.enc.Encode(&c.hold)
	c.hold.P = nil
	r := gobmemo.NewReader(c.out.Bytes())
	w, ok := bytes.CutPrefix(r.Bytes(), c.msgHdr)
	if err == nil && (r.Done() != nil || !ok || !bytes.HasPrefix(w, c.valueID)) {
		err = fmt.Errorf("ckpt: program %v: a value sent type definitions of its own", c.typ)
	}
	if err != nil {
		c.enc = nil
		return nil, err
	}
	return w, nil
}

// decode parses b, which must be P_T ‖ uint(len W) ‖ W with nothing
// after it.
func (c *progCodec) decode(b []byte) (kernel.Program, error) {
	if c.enc == nil {
		if err := c.prime(); err != nil {
			return nil, err
		}
	}
	rest, ok := bytes.CutPrefix(b, c.prefix)
	r := gobmemo.NewReader(rest)
	w, isT := bytes.CutPrefix(r.Bytes(), c.valueID)
	wr := gobmemo.NewReader(w)
	v := wr.Bytes()
	wr.Check(wr.Uint() == 0, "progHolder not ended")
	if !ok || r.Done() != nil || !isT || wr.Done() != nil {
		return nil, fmt.Errorf("not the state of a %v", c.typ)
	}
	p, err := c.walk.Read(v)
	if err != nil {
		return nil, err
	}
	return p.Interface().(kernel.Program), nil
}

// appendUint appends gob's encoding of v: one byte below 128, else the
// negated count of the big-endian bytes that follow.
func appendUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	n := (bits.Len64(v) + 7) / 8
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}
