package gobmemo

import (
	"fmt"
	"reflect"
	"unsafe"
)

// A Walker reads values of one struct type off their gob value messages
// without gob's decoder: it follows the type, planned once by reflection,
// reads with a Reader of gob's primitives and stores each value in place.
// It takes only what gob.Encoder writes: a struct field only when it is
// not zero (an array, a nested struct and a map that is not nil whatever
// they hold), an element even when it is zero, an integer in its shortest
// form and within its type's range, and no NaN or map key sent twice — so
// what it accepts is what a fresh gob.Decoder makes of the same bytes,
// and re-encodes to them, up to the order of a map's entries. A value it
// reads holds no byte of its input, and costs the value and what it
// carries: each string, slice, map and pointer once. A Walker is not safe
// for concurrent use; its owner holds it under a lock.
type Walker struct {
	typ  reflect.Type
	plan *plan
	r    Reader
}

// plan is how to read a value of one type, built once per type a Walker
// reaches.
type plan struct {
	kind      reflect.Kind
	typ       reflect.Type
	size      uintptr // of a value, in bytes
	elem, key *plan   // a pointer's, slice's, array's or map's element; a map's key
	// n is an array's length, or how many of a struct's fields are arrays
	// and structs, which gob sends whatever they hold.
	n      int
	fields []field // a struct's fields gob sends, numbered by their place here
	// temps point at a map's key and element while they are read, one
	// pair for each map of this type being read, the outermost first.
	temps [][2]reflect.Value
	depth int
}

type field struct {
	*plan
	offset uintptr // in the struct
}

// NewWalker returns a walker of t, a struct type or a pointer to one. It
// panics, naming the path to it, on a type reachable from t that it has no
// walk for: an interface, whose gob descriptors depend on the value, or a
// float32 or complex number, which no message holds.
func NewWalker(t reflect.Type) *Walker {
	s := t
	if s.Kind() == reflect.Pointer {
		s = s.Elem()
	}
	if s.Kind() != reflect.Struct {
		panic(fmt.Sprintf("gobmemo: %v is not a struct", t))
	}
	return &Walker{typ: t, plan: newPlan(s, t.String(), map[reflect.Type]*plan{})}
}

// newPlan returns t's plan; path names t from the walker's type. A type
// met again while its plan is built — a recursive type, followed through
// a pointer or a slice — gets the plan under construction, complete by
// the time anything reads with it.
func newPlan(t reflect.Type, path string, built map[reflect.Type]*plan) *plan {
	if p := built[t]; p != nil {
		return p
	}
	p := &plan{kind: t.Kind(), typ: t, size: t.Size()}
	built[t] = p
	switch p.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float64, reflect.String:
	case reflect.Array:
		p.n = t.Len()
		fallthrough
	case reflect.Pointer, reflect.Slice:
		p.elem = newPlan(t.Elem(), path, built)
	case reflect.Map:
		p.key, p.elem = newPlan(t.Key(), path+"[key]", built), newPlan(t.Elem(), path, built)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			base := f.Type
			for base.Kind() == reflect.Pointer {
				base = base.Elem()
			}
			if f.IsExported() && base.Kind() != reflect.Chan && base.Kind() != reflect.Func {
				p.fields = append(p.fields, field{newPlan(f.Type, path+"."+f.Name, built), f.Offset})
				if k := f.Type.Kind(); k == reflect.Array || k == reflect.Struct {
					p.n++
				}
			}
		}
	case reflect.Interface:
		panic(fmt.Sprintf("gobmemo: %s is interface-typed; its gob descriptors depend on the value", path))
	default:
		panic(fmt.Sprintf("gobmemo: no walk for %s, a %v", path, t))
	}
	return p
}

// Read reads a value of the walker's type off b, which must hold exactly
// one value message of its struct: the fields and the end of the struct.
func (w *Walker) Read(b []byte) (reflect.Value, error) {
	v := reflect.New(w.plan.typ)
	w.r = Reader{b: b}
	w.value(w.plan, v.UnsafePointer(), false)
	err := w.r.Done()
	w.r = Reader{}
	if err != nil {
		return reflect.Value{}, err
	}
	if w.typ.Kind() != reflect.Pointer {
		v = v.Elem()
	}
	return v, nil
}

// value reads a value of p into the memory at, which holds p's zero
// value. gob sends a struct field only when it is not zero, so sent says
// it is one. Every value is written through at as what p's type is, so a
// plain store of each kind's Go type stands for reflect's setters.
func (w *Walker) value(p *plan, at unsafe.Pointer, sent bool) {
	r := &w.r
	switch p.kind {
	case reflect.Bool:
		x := r.Uint()
		r.Check(x == 1 || x == 0 && !sent, "a bool sent as other than 1, or a false field sent")
		*(*bool)(at) = x == 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, drop := r.Int(), 64-8*p.size
		r.Check(x != 0 || !sent, zeroSent)
		r.Check(x<<drop>>drop == x, "an integer out of its field's range")
		store(at, p.size, uint64(x))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x, drop := r.Uint(), 64-8*p.size
		r.Check(x != 0 || !sent, zeroSent)
		r.Check(x<<drop>>drop == x, "an integer out of its field's range")
		store(at, p.size, x)
	case reflect.Float64:
		x := r.Float()
		r.Check(x != 0 || !sent, zeroSent)
		r.Check(x == x, "a float that is not a number")
		*(*float64)(at) = x
	case reflect.String:
		if b := w.bytes(sent); len(b) > 0 {
			*(*string)(at) = string(b)
		}
	case reflect.Slice:
		if p.elem.kind == reflect.Uint8 {
			if b := w.bytes(sent); len(b) > 0 {
				*(*[]byte)(at) = append([]byte(nil), b...)
			}
			return
		}
		n := r.Count()
		r.Check(n != 0 || !sent, zeroSent)
		if n == 0 {
			return
		}
		s := reflect.NewAt(p.typ, at).Elem()
		s.Grow(n)
		s.SetLen(n)
		for i, base := 0, s.UnsafePointer(); i < n && r.err == nil; i++ {
			w.value(p.elem, unsafe.Add(base, uintptr(i)*p.elem.size), false)
		}
	case reflect.Array:
		r.Check(r.Uint() == uint64(p.n), "an array of the wrong length")
		for i := 0; i < p.n && r.err == nil; i++ {
			w.value(p.elem, unsafe.Add(at, uintptr(i)*p.elem.size), false)
		}
	case reflect.Map:
		n := r.Count()
		m := reflect.MakeMapWithSize(p.typ, n)
		if p.depth == len(p.temps) {
			p.temps = append(p.temps, [2]reflect.Value{reflect.New(p.key.typ), reflect.New(p.elem.typ)})
		}
		k, e := p.temps[p.depth][0], p.temps[p.depth][1]
		p.depth++
		for i := 0; i < n && r.err == nil; i++ {
			k.Elem().SetZero()
			e.Elem().SetZero()
			w.value(p.key, k.UnsafePointer(), false)
			w.value(p.elem, e.UnsafePointer(), false)
			m.SetMapIndex(k.Elem(), e.Elem())
			r.Check(m.Len() == i+1, "a map key sent twice")
		}
		k.Elem().SetZero()
		e.Elem().SetZero()
		p.depth--
		*(*unsafe.Pointer)(at) = m.UnsafePointer()
	case reflect.Pointer:
		e := reflect.New(p.elem.typ).UnsafePointer()
		w.value(p.elem, e, sent)
		*(*unsafe.Pointer)(at) = e
	case reflect.Struct:
		always := 0 // arrays and structs read; Field takes each field once at most
		for f := r.Field(-1, len(p.fields)); f >= 0; f = r.Field(f, len(p.fields)) {
			if k := p.fields[f].kind; k == reflect.Array || k == reflect.Struct {
				always++
			}
			w.value(p.fields[f].plan, unsafe.Add(at, p.fields[f].offset), true)
		}
		r.Check(always == p.n, "an array or struct field not sent")
	}
}

// store writes the low size bytes of x at at, an integer of that size.
func store(at unsafe.Pointer, size uintptr, x uint64) {
	switch size {
	case 1:
		*(*uint8)(at) = uint8(x)
	case 2:
		*(*uint16)(at) = uint16(x)
	case 4:
		*(*uint32)(at) = uint32(x)
	default:
		*(*uint64)(at) = x
	}
}

// bytes reads a string's or a byte slice's bytes, which a struct field
// sends only when there are some.
func (w *Walker) bytes(sent bool) []byte {
	b := w.r.Bytes()
	w.r.Check(len(b) != 0 || !sent, zeroSent)
	return b
}
