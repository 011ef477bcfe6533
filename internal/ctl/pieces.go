package ctl

// PieceReader reads a payload that arrived as pieces (see Codec), front
// to back, without writing to them. What Next hands out is the reader's
// to keep: a capped sub-slice of the piece that holds it whole — for a
// part sent uncopied, the sender's own bytes — and a copy only when it
// spans pieces. What Peek and Piece hand out is lent: a received frame's
// copied bytes lie in its connection's stage until something of them is
// kept, so a borrowed slice is valid only during the frame callback.
type PieceReader struct {
	pieces [][]byte
	off    int   // into pieces[0]
	left   int   // bytes not read yet
	lender *Conn // lends the stage some pieces lie in; nil when every piece is the reader's
}

// NewPieceReader returns a reader at the start of pieces, which are the
// caller's: nothing it hands out is lent.
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

// Next reads n bytes (n <= Len) to keep: a capped sub-slice of the piece
// that holds them all, or a copy when they span pieces. A slice of a
// lent piece first has the connection give the frame's copied bytes a
// buffer of their own (Conn.keep).
func (r *PieceReader) Next(n int) []byte {
	return r.next(n, true)
}

// Peek returns what Next(n) would, without reading it, and lent: the
// bytes may lie in the connection's stage.
func (r *PieceReader) Peek(n int) []byte {
	ahead := *r
	return ahead.next(n, false)
}

// Piece returns the unread rest of the piece the reader is at, without
// reading it, lent like Peek's.
func (r *PieceReader) Piece() []byte {
	if len(r.pieces) == 0 {
		return nil
	}
	return r.pieces[0][r.off:]
}

func (r *PieceReader) next(n int, keep bool) []byte {
	if n == 0 {
		return []byte{}
	}
	r.left -= n
	for r.off == len(r.pieces[0]) {
		r.pieces, r.off = r.pieces[1:], 0
	}
	if end := r.off + n; end <= len(r.pieces[0]) {
		if keep && r.lender.lends(r.pieces[0]) {
			r.lender.keep() // repoints r.pieces, which share the frame's list
		}
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
