package gobmemo

import (
	"bytes"
	"testing"
)

// TestErrorDiscardsTheHalfThatFailed pins the rule that keeps a failure
// from outliving its call: whatever state gob is left in, the encoder or
// decoder that returned the error is dropped and rebuilt on next use.
func TestErrorDiscardsTheHalfThatFailed(t *testing.T) {
	type pair struct {
		A    int
		Ptrs []*int
	}
	c := New[pair]()
	var good bytes.Buffer
	if err := c.Encode(&good, &pair{A: 1}); err != nil {
		t.Fatal(err)
	}
	var v pair
	if _, err := c.Decode(good.Bytes(), &v); err != nil || c.dec == nil {
		t.Fatalf("good decode: %v, decoder kept: %v", err, c.dec != nil)
	}
	if _, err := c.Decode(good.Bytes()[:good.Len()-1], &v); err == nil || c.dec != nil {
		t.Fatalf("truncated decode: %v, decoder kept: %v", err, c.dec != nil)
	}
	if _, err := c.Decode(good.Bytes(), &v); err != nil || v.A != 1 || c.dec == nil {
		t.Fatalf("good decode after a bad one: %+v, %v", v, err)
	}
	if err := c.Encode(new(bytes.Buffer), &pair{Ptrs: []*int{nil}}); err == nil || c.enc != nil {
		t.Fatalf("gob encodes no nil slice element: %v, encoder kept: %v", err, c.enc != nil)
	}
	var again bytes.Buffer
	if err := c.Encode(&again, &pair{A: 1}); err != nil || !bytes.Equal(again.Bytes(), good.Bytes()) {
		t.Fatalf("encode after a failed one: %v, same bytes: %v", err, bytes.Equal(again.Bytes(), good.Bytes()))
	}
}
