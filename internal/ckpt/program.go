package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"reflect"
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
// definition messages. W is the rest of the value: T's type id, T's value
// message and the end of progHolder. With no interface reachable from T,
// P_T depends on T alone, and an encoder that has already sent it writes
// a value as
//
//	uint(len M_T + len W) ‖ M_T ‖ W
//
// So each registered type has one progCodec holding a long-lived encoder
// and decoder that have seen P_T: encoding is emitting P_T and re-framing
// what the encoder writes; decoding is checking P_T and the length,
// re-framing, and feeding the decoder. gob's type ids are process-global
// and assigned on first use, so P_T is derived on a codec's first use,
// never at registration: deriving it earlier would number the types in
// another order and change the bytes of every image head.

// progHolder lets gob encode the Program interface value.
type progHolder struct {
	P kernel.Program
}

// progCodec is the memoised codec of one registered program type.
type progCodec struct {
	typ  reflect.Type
	name string // the name gob registered typ under, which M_T carries
	// hasMap says a map is reachable from typ. gob writes a map's entries
	// in Go's random iteration order, so the same value has more than one
	// encoding.
	hasMap bool

	//cruzvet:allow nodeterminism one codec per program type serves every cluster in the process, and tests run clusters in parallel goroutines; its output is a function of its input alone
	mu sync.Mutex

	fresh   []byte // a fresh encoder's bytes for the zero value: P_T ‖ uint(len W₀) ‖ W₀
	prefix  []byte // P_T, a prefix of fresh
	msgHdr  []byte // M_T
	valueID []byte // typ's type id, which W opens with

	enc *gob.Encoder // has sent P_T; nil until first use and after an error
	out bytes.Buffer // what enc writes
	dec *gob.Decoder // has received P_T; nil until first use and after an error
	// in is what dec reads. As an io.ByteReader it is read directly, not
	// through a bufio.Reader that would keep bytes of one call for the next.
	in   bytes.Reader
	msg  []byte     // the message in re-frames for dec
	hold progHolder // the value enc and dec work on, so none escapes per call
}

// programs holds a codec per registered program type, in registration
// order. Only RegisterProgram, at init time, appends to it.
var programs []*progCodec

// RegisterProgram must be called (once, at init time) for every concrete
// Program type that will be checkpointed, so its state can travel through
// gob. This mirrors the real-world requirement that checkpointable code
// be compiled into the restoring binary. It panics if an interface-typed
// field is reachable from the type: gob would describe that field's
// concrete type in the middle of the value, so the state would have no
// encoding prefix of its own type alone.
func RegisterProgram(p kernel.Program) {
	t := reflect.TypeOf(p)
	if path := gobmemo.Reaches(t, reflect.Interface); path != "" {
		panic(fmt.Sprintf("ckpt: program %s is interface-typed; register programs of concrete state only", path))
	}
	gob.Register(p)
	if programFor(t) == nil {
		programs = append(programs, &progCodec{typ: t, name: gobName(t), hasMap: gobmemo.Reaches(t, reflect.Map) != ""})
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
	for _, c := range programs {
		if c.name == string(name) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.decode(b)
		}
	}
	return nil, fmt.Errorf("state of no registered program type (named %.40q)", name)
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
		c.fresh, c.prefix, c.msgHdr = fresh, fresh[:at], bytes.Clone(msgHdr)
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
// after it, and must be what value writes for the program it decodes to.
func (c *progCodec) decode(b []byte) (kernel.Program, error) {
	if c.enc == nil {
		if err := c.prime(); err != nil {
			return nil, err
		}
	}
	rest, ok := bytes.CutPrefix(b, c.prefix)
	r := gobmemo.NewReader(rest)
	w := r.Bytes()
	if !ok || r.Done() != nil || !bytes.HasPrefix(w, c.valueID) {
		return nil, fmt.Errorf("not the state of a %v", c.typ)
	}
	if c.dec == nil {
		// A new decoder reads P_T with the zero value, and is primed by it.
		c.in.Reset(c.fresh)
		c.dec = gob.NewDecoder(&c.in)
		if err := c.dec.Decode(&c.hold); err != nil {
			c.dec = nil
			return nil, err
		}
	}
	c.msg = append(appendUint(c.msg[:0], uint64(len(c.msgHdr)+len(w))), c.msgHdr...)
	c.msg = append(c.msg, w...)
	c.in.Reset(c.msg)
	c.hold.P = nil
	err := c.dec.Decode(&c.hold)
	p := c.hold.P
	c.hold.P = nil
	if err != nil {
		// A failed Decode can leave the decoder holding part of a message.
		c.dec = nil
		return nil, err
	}
	// gob's decoder also takes a wider integer than needed, a zero field
	// sent, any non-zero byte for true: accept only the one encoding.
	again, err := c.value(p)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, w) && !(c.hasMap && permutes(again, w)) {
		return nil, fmt.Errorf("%v state not as an encoder writes it", c.typ)
	}
	return p, nil
}

// permutes reports whether a and b hold the same bytes in some order, as
// two encodings of a value with a map of more than one entry do.
func permutes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var n [256]int
	for i := range a {
		n[a[i]]++
		n[b[i]]--
	}
	return n == [256]int{}
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
