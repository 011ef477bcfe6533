package gobmemo

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Value returns the value message of T that b opens with, past its length
// and type id — for a struct T, its fields — and the bytes of b after it,
// if b starts with P followed by one value message of T, what Encode
// writes. It serves a decoder that walks T with a Reader instead of gob's;
// any other input is an error.
func (c *Codec[T]) Value(b []byte) (v, rest []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prefix == nil {
		c.primeEncoder()
	}
	if !c.plain(b) {
		return nil, nil, errors.New("gobmemo: not the descriptors and a value message")
	}
	r := NewReader(b[len(c.prefix):])
	n := r.Uint()
	if r.err != nil || n > uint64(r.Len()) || n < uint64(len(c.valueHdr)) {
		return nil, nil, errors.New("gobmemo: value message length overruns the bytes after it")
	}
	end := r.off + int(n)
	return r.b[r.off+len(c.valueHdr) : end], r.b[end:], nil
}

// Reader reads the primitives of a gob value message: unsigned and signed
// integers, strings, counts and struct field numbers. It accepts only the
// one encoding gob.Encoder writes for each — an unsigned integer in its
// shortest form — so what it accepts re-encodes to the same bytes. The
// first error sticks: every later read returns zero and Field returns −1,
// so loops over fields and elements end.
type Reader struct {
	b   []byte
	off int // bytes of b read
	err error
}

// NewReader returns a reader of b, as Codec.Value returns it.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Check records what as the error when ok is false and nothing failed
// before: a rule of the type being walked, such as gob sending a struct
// field only when it is not zero.
func (r *Reader) Check(ok bool, what string) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf("gobmemo: %s", what)
		r.off = len(r.b)
	}
}

// Done returns the first error, or one if any byte is left unread.
func (r *Reader) Done() error {
	r.Check(r.off == len(r.b), "bytes after the value")
	return r.err
}

// Uint reads an unsigned integer: one byte below 128, else the negated
// count of the big-endian bytes that follow, no more than needed.
func (r *Reader) Uint() uint64 {
	b := r.b[r.off:]
	if len(b) == 0 {
		r.Check(false, "value ends early")
		return 0
	}
	if b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	n := 256 - int(b[0])
	if n > 8 || n >= len(b) {
		r.Check(false, "unsigned integer overruns the value")
		return 0
	}
	var v uint64
	for _, d := range b[1 : 1+n] {
		v = v<<8 | uint64(d)
	}
	if b[1] == 0 || v < 0x80 {
		r.Check(false, "unsigned integer not in its shortest form")
		return 0
	}
	r.off += 1 + n
	return v
}

// Float reads a floating-point number: an unsigned integer holding its
// IEEE 754 bits with the byte order reversed.
func (r *Reader) Float() float64 { return math.Float64frombits(bits.ReverseBytes64(r.Uint())) }

// Int reads a signed integer: an unsigned one whose low bit is the sign
// and whose other bits are the value, complemented when negative.
func (r *Reader) Int() int64 {
	u := r.Uint()
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// Count reads a slice's element count or a string's byte count. Every
// element takes at least a byte, so a count past the bytes left is an
// error before the caller allocates for it.
func (r *Reader) Count() int {
	n := r.Uint()
	if n > uint64(len(r.b)-r.off) {
		r.Check(false, "count overruns the value")
		return 0
	}
	return int(n)
}

// String reads a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bytes reads a count-prefixed byte string — a string, a []byte, or a
// whole message of a gob stream — without copying it.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

// gob.Encoder sends a struct field only when it is not zero — a number
// other than 0, a bool that is true, a string or slice that is not empty —
// so the Sent reads of a field's value reject a zero. (A map that is not
// nil, an array and a struct are sent however they read.)
const zeroSent = "a zero field sent"

// SentUint reads a struct field's unsigned integer.
func (r *Reader) SentUint() uint64 {
	x := r.Uint()
	r.Check(x != 0, zeroSent)
	return x
}

// SentInt reads a struct field's signed integer.
func (r *Reader) SentInt() int64 {
	x := r.Int()
	r.Check(x != 0, zeroSent)
	return x
}

// SentBool reads a struct field's bool, which is sent as 1 and only when
// true.
func (r *Reader) SentBool() bool {
	r.Check(r.Uint() == 1, "a bool field not sent as 1")
	return true
}

// SentCount reads a struct field's slice or string length.
func (r *Reader) SentCount() int {
	n := r.Count()
	r.Check(n != 0, zeroSent)
	return n
}

// SentString reads a struct field's string.
func (r *Reader) SentString() string {
	n := r.SentCount()
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Field reads the number of the next field of a struct of n fields whose
// last field read was last (−1 before the first). gob sends each as the
// positive distance from the one before, and 0 to end the struct, for
// which Field returns −1.
func (r *Reader) Field(last, n int) int {
	d := r.Uint()
	if d == 0 || r.err != nil {
		return -1
	}
	if d > uint64(n-1-last) {
		r.Check(false, "field number out of range")
		return -1
	}
	return last + int(d)
}
