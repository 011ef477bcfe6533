package gobmemo_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cruz/internal/gobmemo"
	"cruz/internal/gobmemo/gobmemotest"
)

// record reaches every kind of type gob describes: nested and recursive
// structs and maps, pointers, slices, arrays, and a skipped unexported
// field.
type record struct {
	Name   string
	N      int
	Leaves []leaf
	Sub    *sub
	Subs   []sub
	ByName map[string]sub
	hidden io.Reader // unexported: gob never looks at it
}

type sub struct {
	ID   uint32
	Next *sub
	Bits map[int][]byte
	Kids map[int]sub // a map read inside a map of its own type
}

// leaf is map-free, so that generated values have one encoding: gob writes
// a map in iteration order.
type leaf struct {
	S     string
	F     float64
	Raw   []byte
	Tags  []string
	Point [2]int16
	Deep  [][]uint64
	Ptr   *int8
	Flag  bool
}

var recordCodec = gobmemo.New[record]()

func sample() *record {
	return &record{
		Name: "r", N: -7,
		Leaves: []leaf{{S: "l", F: 2.5, Raw: []byte{1, 2, 3}, Tags: []string{"a", ""}, Point: [2]int16{-1, 9}}, {}},
		Sub:    &sub{ID: 1, Next: &sub{ID: 2}, Bits: map[int][]byte{3: {4}}, Kids: map[int]sub{7: {Kids: map[int]sub{8: {ID: 9}}}}},
		Subs:   []sub{{ID: 5}, {}},
		ByName: map[string]sub{"k": {ID: 6}},
	}
}

func TestIdentityWithFreshGob(t *testing.T) {
	values := []*record{{}, sample()}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		v, ok := quick.Value(reflect.TypeOf([]leaf(nil)), rng)
		if !ok {
			t.Fatal("quick cannot generate leaves")
		}
		values = append(values, &record{Name: "q", N: i, Leaves: v.Interface().([]leaf)})
	}
	gobmemotest.Identity(t, recordCodec, values...)
}

// TestReadMatchesGob holds the walk to gob on values that reach every
// kind record reaches, the recursive sub.Next followed two deep.
func TestReadMatchesGob(t *testing.T) {
	encode := func(v *record) ([]byte, error) {
		var b bytes.Buffer
		err := recordCodec.Encode(&b, v)
		return b.Bytes(), err
	}
	read := func(b []byte) (*record, error) {
		v, n, err := recordCodec.Read(b)
		if err == nil && n != len(b) {
			return nil, fmt.Errorf("%d bytes after the value", len(b)-n)
		}
		return v, err
	}
	gobmemotest.Reads(t, encode, read, &record{}, sample(), &record{Sub: &sub{Next: &sub{Next: &sub{ID: 3}}}})
}

func TestHostileInputLeavesNoTrace(t *testing.T) {
	gobmemotest.Hostile(t, recordCodec, sample())
}

func TestConcurrentUse(t *testing.T) {
	gobmemotest.Hammer(t, recordCodec, sample(), &record{}, &record{Name: "third"})
}

// TestNewRefusesInterfaceFields: a type gob can reach an interface from
// has no constant prefix, wherever the interface hides.
func TestNewRefusesInterfaceFields(t *testing.T) {
	type inner struct{ V any }
	type direct struct{ R io.Reader }
	type nested struct{ In []map[string]*inner }
	type keyed struct{ M map[any]int }
	for name, mk := range map[string]func(){
		"direct": func() { gobmemo.New[direct]() },
		"nested": func() { gobmemo.New[nested]() },
		"keyed":  func() { gobmemo.New[keyed]() },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "interface-typed") {
					t.Errorf("%s: New did not refuse the type (recovered %v)", name, r)
				}
			}()
			mk()
		}()
	}
}
