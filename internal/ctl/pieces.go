package ctl

// PieceReader reads a payload that arrived as pieces (see Codec), front
// to back, without writing to them. What it hands out is a capped
// sub-slice of the piece that holds it whole — for a part sent uncopied,
// the sender's own bytes — and a copy only when it spans pieces.
type PieceReader struct {
	pieces [][]byte
	off    int // into pieces[0]
	left   int // bytes not read yet
}

// NewPieceReader returns a reader at the start of pieces.
func NewPieceReader(pieces [][]byte) PieceReader {
	r := PieceReader{pieces: pieces}
	for _, p := range pieces {
		r.left += len(p)
	}
	return r
}

// Len returns the bytes not read yet.
func (r *PieceReader) Len() int { return r.left }

// Skip passes over n bytes (n <= Len).
func (r *PieceReader) Skip(n int) {
	r.left -= n
	for n > 0 {
		k := min(n, len(r.pieces[0])-r.off)
		n -= k
		if r.off += k; r.off == len(r.pieces[0]) {
			r.pieces, r.off = r.pieces[1:], 0
		}
	}
}

// Next reads n bytes (n <= Len): a capped sub-slice of the piece that
// holds them all, or a copy when they span pieces.
func (r *PieceReader) Next(n int) []byte {
	r.left -= n
	for len(r.pieces) > 0 && r.off == len(r.pieces[0]) {
		r.pieces, r.off = r.pieces[1:], 0
	}
	if len(r.pieces) == 0 {
		return []byte{}
	}
	if end := r.off + n; end <= len(r.pieces[0]) {
		b := r.pieces[0][r.off:end:end]
		r.off = end
		return b
	}
	b := make([]byte, n)
	for k := 0; k < n; {
		c := copy(b[k:], r.pieces[0][r.off:])
		k += c
		if r.off += c; r.off == len(r.pieces[0]) {
			r.pieces, r.off = r.pieces[1:], 0
		}
	}
	return b
}

// Peek returns what Next(n) would, without reading it.
func (r *PieceReader) Peek(n int) []byte {
	ahead := *r
	return ahead.Next(n)
}
