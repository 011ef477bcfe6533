package core

import (
	"cruz/internal/ckpt"
	"cruz/internal/gobmemo"
	"cruz/internal/mem"
)

// readHead reads the gob head b opens with, and returns how many bytes it
// took, without gob's decoder: it walks the value wireCodec.Value hands
// over with a gobmemo.Reader, as ckpt reads an ECSet, and allocates only
// the message and what it carries: its Repl, strings, slices and maps.
// Field numbers are each struct's exported fields in order, so a field
// added to wireMsg or a type it carries needs a case here, or
// TestHeadReaderMatchesGob fails. It takes only what gob.Encoder writes —
// a struct field when it is not zero, an array or nested struct always,
// and no bulk bytes, which travel behind the head — so what it accepts
// decodes as gob decodes it and re-encodes to itself, up to the order of
// a map's entries.
func readHead(b []byte) (*wireMsg, int, error) {
	v, rest, err := wireCodec.Value(b)
	if err != nil {
		return nil, 0, err
	}
	m := new(wireMsg)
	// The scalar fields, by number.
	ints := [...]*int{0: (*int)(&m.Type), 1: &m.Seq, 12: &m.Replicas, 13: &m.PrecopyRounds, 14: &m.PrecopyThresholdPages, 16: &m.Load}
	int64s := [...]*int64{4: (*int64)(&m.LocalDuration), 5: (*int64)(&m.BlockedDuration), 6: &m.ImageBytes, 17: (*int64)(&m.FrozeAt)}
	strs := [...]*string{2: &m.Pod, 3: &m.Err, 19: &m.Job}
	bools := [...]*bool{7: &m.Incremental, 8: &m.Optimized, 9: &m.COW, 10: &m.Dedup, 11: &m.Pipeline}
	r := gobmemo.NewReader(v)
	for f := r.Field(-1, 23); f >= 0; f = r.Field(f, 23) {
		switch f {
		case 0, 1, 12, 13, 14, 16:
			*ints[f] = int(r.SentInt())
		case 4, 5, 6, 17:
			*int64s[f] = r.SentInt()
		case 2, 3, 19:
			*strs[f] = r.SentString()
		case 7, 8, 9, 10, 11:
			*bools[f] = r.SentBool()
		case 15:
			g := r.Float()
			r.Check(g != 0 && g == g, "a gain that is zero or not a number")
			m.PrecopyMinGain = g
		case 18:
			m.RoundPages = readInts(&r)
		case 20:
			m.Group = readMembers(&r)
		case 21:
			m.Reports = readReports(&r)
		case 22:
			m.Repl = readRepl(&r)
		}
	}
	if err := r.Done(); err != nil {
		return nil, 0, err
	}
	return m, len(b) - len(rest), nil
}

// readRepl reads a replPayload, which is sent whenever it is not nil.
func readRepl(r *gobmemo.Reader) *replPayload {
	p := new(replPayload)
	ints := [...]*int{12: &p.Holder, 13: &p.ECM}
	seqs := [...]*[]int{0: &p.Chain, 3: &p.NeedSeqs}
	hashes := [...]*[]mem.PageHash{2: &p.Hashes, 4: &p.NeedHashes}
	maps := [...]*map[int][]byte{5: &p.Blobs, 6: &p.Manifests}
	peer := false
	for f := r.Field(-1, 15); f >= 0; f = r.Field(f, 15) {
		switch f {
		case 0, 3:
			*seqs[f] = readInts(r)
		case 1:
			p.Dedup = r.SentBool()
		case 2, 4:
			*hashes[f] = readHashes(r)
		case 5, 6:
			*maps[f] = readSeqs(r)
		case 7:
			p.Chunks = readChunks(r)
		case 8:
			p.Bytes = r.SentInt()
		case 9:
			p.PeerIP, peer = ckpt.ReadAddr(r), true
		case 10:
			p.PeerPort = ckpt.ReadPort(r)
		case 11: // ECSet
			r.Check(false, bulkInHead)
		case 12, 13:
			*ints[f] = int(r.SentInt())
		case 14:
			p.Sources = readMembers(r)
		}
	}
	r.Check(peer, notSent)
	return p
}

const (
	bulkInHead = "bulk bytes in the head"
	notSent    = "an array or struct field not sent"
)

// Each read of a slice reads its count, then that many elements.

func readInts(r *gobmemo.Reader) []int {
	s := make([]int, r.SentCount())
	for i := range s {
		s[i] = int(r.Int())
	}
	return s
}

func readHashes(r *gobmemo.Reader) []mem.PageHash {
	s := make([]mem.PageHash, r.SentCount())
	for i := range s {
		s[i] = ckpt.ReadHash(r)
	}
	return s
}

func readChunks(r *gobmemo.Reader) []ckpt.ChunkData {
	s := make([]ckpt.ChunkData, r.SentCount())
	for i := range s {
		r.Check(r.Field(-1, 2) == 0, notSent) // Hash; Data is bulk
		s[i].Hash = ckpt.ReadHash(r)
		r.Check(r.Field(0, 2) == -1, bulkInHead)
	}
	return s
}

func readMembers(r *gobmemo.Reader) []GroupMember {
	s := make([]GroupMember, r.SentCount())
	for i := range s {
		g, ip := &s[i], false
		for f := r.Field(-1, 3); f >= 0; f = r.Field(f, 3) {
			switch f {
			case 0:
				g.Pod = r.SentString()
			case 1:
				g.IP, ip = ckpt.ReadAddr(r), true
			case 2:
				g.Port = ckpt.ReadPort(r)
			}
		}
		r.Check(ip, notSent)
	}
	return s
}

func readReports(r *gobmemo.Reader) []GroupReport {
	s := make([]GroupReport, r.SentCount())
	for i := range s {
		g := &s[i]
		int64s := [...]*int64{1: (*int64)(&g.LocalDuration), 2: (*int64)(&g.BlockedDuration), 3: &g.ImageBytes}
		for f := r.Field(-1, 4); f >= 0; f = r.Field(f, 4) {
			if f == 0 {
				g.Pod = r.SentString()
			} else {
				*int64s[f] = r.SentInt()
			}
		}
	}
	return s
}

// readSeqs reads a map of sequences to bulk slices, whose values travel
// behind the head: here each is empty. The map grows with the entries
// read, not with the count a hostile head claims.
func readSeqs(r *gobmemo.Reader) map[int][]byte {
	n := r.Count()
	m := make(map[int][]byte)
	for i := 0; i < n && r.Err() == nil; i++ {
		seq := int(r.Int())
		_, dup := m[seq]
		r.Check(!dup, "a map key sent twice")
		r.Check(r.Uint() == 0, bulkInHead)
		m[seq] = nil
	}
	return m
}
