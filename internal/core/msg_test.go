package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/gobmemo/gobmemotest"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// payloadOf assembles the frame payload a receiver would see for m.
func payloadOf(t testing.TB, m *wireMsg) (payload []byte, parts [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	parts, err := encodeMsg(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	payload = append([]byte(nil), buf.Bytes()...)
	for _, p := range parts {
		payload = append(payload, p...)
	}
	return payload, parts
}

// TestControlFrameSizesPinned: a bulk-free control frame is the plain gob
// encoding of its wireMsg, byte for byte. The virtual clock charges wire
// time per byte, so these sizes are
// part of the coordination-overhead numbers; a change to wireMsg's or
// replPayload's field set shows up here first.
func TestControlFrameSizesPinned(t *testing.T) {
	twoHashes := []mem.PageHash{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}}
	group := []GroupMember{{Pod: "slm-0", IP: tcpip.Addr{10, 0, 0, 1}, Port: 7077}, {Pod: "slm-1", IP: tcpip.Addr{10, 0, 0, 2}, Port: 7077}}
	for _, tc := range []struct {
		m    *wireMsg
		size int
	}{
		{&wireMsg{Type: msgPing}, 957},
		{&wireMsg{Type: msgCheckpoint, Seq: 3, Pod: "slm-0", Incremental: true, Dedup: true, Replicas: 1}, 972},
		{&wireMsg{Type: msgDone, Seq: 3, Pod: "slm-0", LocalDuration: 91 * sim.Millisecond, ImageBytes: 8 << 20}, 978},
		{&wireMsg{Type: msgContinue, Seq: 3, Pod: "slm-0"}, 966},
		{&wireMsg{Type: msgReplOffer, Seq: 3, Pod: "slm-0", Repl: &replPayload{Chain: []int{3, 2}, Dedup: true, Hashes: twoHashes}}, 992},
		{&wireMsg{Type: msgFetch, Seq: 3, Pod: "slm-0", Repl: &replPayload{PeerIP: tcpip.Addr{10, 0, 0, 2}, PeerPort: 7077}}, 978},
		// A shard offer is a replication offer plus its ring position and
		// the ECM field that marks it: 2 bytes more than the <ec-offer> it
		// replaced (994), the only frame the exchange fold resized.
		{&wireMsg{Type: msgReplOffer, Seq: 3, Pod: "slm-0", Repl: &replPayload{Chain: []int{3, 2}, Dedup: true, Hashes: twoHashes, Holder: 2, ECM: 4}}, 996},
		// The frames the root exchanges with a group leader, at the sizes
		// of the <group-*> frames they replaced: the same fields under the
		// flat type.
		{&wireMsg{Type: msgCheckpoint, Seq: 3, Job: "ring", Group: group, Incremental: true, Dedup: true, Replicas: 1}, 1009},
		{&wireMsg{Type: msgDone, Seq: 3, Job: "ring", Reports: []GroupReport{
			{Pod: "slm-0", LocalDuration: 91 * sim.Millisecond, ImageBytes: 8 << 20},
			{Pod: "slm-1", LocalDuration: 91 * sim.Millisecond, ImageBytes: 8 << 20}}}, 1007},
		{&wireMsg{Type: msgContinue, Seq: 3, Job: "ring"}, 965},
		{&wireMsg{Type: msgAbort, Seq: 3, Job: "ring"}, 965},
		// A migration's frames, at the sizes of the migration-only types
		// they replaced (migrate, migrate-restore, migrate-done,
		// migrate-src-done): the same fields under the two-phase type.
		{&wireMsg{Type: msgCheckpoint, Seq: 3, Pod: "slm-0", Dedup: true, Pipeline: true, PrecopyRounds: 10, PrecopyThresholdPages: 32,
			Repl: &replPayload{PeerIP: tcpip.Addr{10, 0, 0, 2}, PeerPort: 7077}}, 986},
		{&wireMsg{Type: msgContinue, Seq: 3, Pod: "slm-0", FrozeAt: sim.Time(3 * sim.Second)}, 973},
		{&wireMsg{Type: msgDone, Seq: 3, Pod: "slm-0", LocalDuration: 40 * sim.Millisecond, BlockedDuration: 13 * sim.Millisecond, ImageBytes: 8 << 20}, 984},
		{&wireMsg{Type: msgContinueDone, Seq: 3, Pod: "slm-0", RoundPages: []int{2048, 476, 120, 44, 28}, ImageBytes: 9 << 20}, 984},
		// The restart naming the source that arms a migration's
		// destination: 12 bytes more than the <migrate-target> it replaced
		// (966), for the Repl that names the source.
		{&wireMsg{Type: msgRestart, Seq: 3, Pod: "slm-0", Repl: &replPayload{PeerIP: tcpip.Addr{10, 0, 0, 1}, PeerPort: 7077}}, 978},
	} {
		payload, parts := payloadOf(t, tc.m)
		if len(payload) != tc.size || parts != nil {
			t.Errorf("%v frame is %d bytes with %d parts, want %d and none", tc.m.Type, len(payload), len(parts), tc.size)
		}
		var plain bytes.Buffer
		if err := gob.NewEncoder(&plain).Encode(tc.m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, plain.Bytes()) {
			t.Errorf("%v frame is not the plain gob encoding of the message", tc.m.Type)
		}
	}
}

// caseTypes returns the msgType constants fn switches on or compares
// m.Type with, each mapped to how many case clauses name it.
func caseTypes(t *testing.T, files map[string]*ast.File, recv, name string) map[string]int {
	t.Helper()
	out := map[string]int{}
	found := false
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != name || fn.Recv == nil {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok || star.X.(*ast.Ident).Name != recv {
				continue
			}
			found = true
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CaseClause:
					for _, e := range n.List {
						if id, ok := e.(*ast.Ident); ok && strings.HasPrefix(id.Name, "msg") {
							out[id.Name]++
						}
					}
				case *ast.BinaryExpr:
					if id, ok := n.Y.(*ast.Ident); ok && n.Op == token.EQL && strings.HasPrefix(id.Name, "msg") {
						out[id.Name]++
					}
				}
				return true
			})
		}
	}
	if !found {
		t.Fatalf("no method (*%s).%s", recv, name)
	}
	return out
}

// TestEveryMsgTypeNamedAndDispatched walks the msgType const block and the
// two dispatchers, so a fold cannot orphan a type: every constant has a
// wire name, and is either a request only Agent.onMsg handles or a reply
// only Coordinator.onMsg handles — except the replies a group leader
// passes up to the root, which Agent.onMsg hands to relayMemberMsg and
// which must be exactly the votes relaySets gives a wait-set plus the
// placement report it forwards verbatim.
func TestEveryMsgTypeNamedAndDispatched(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := pkgs["core"].Files
	var consts []string
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			vs := gd.Specs[0].(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "msgType" {
				continue
			}
			for _, sp := range gd.Specs {
				consts = append(consts, sp.(*ast.ValueSpec).Names[0].Name)
			}
		}
	}
	n := len(consts) + 1
	if n-1 > 17 || len(msgNames) != n-1 {
		t.Fatalf("%d msgType constants (want at most 17), %d names", n-1, len(msgNames))
	}
	for v := msgType(1); int(v) < n; v++ {
		if _, ok := msgNames[v]; !ok {
			t.Errorf("%s (%d) has no wire name", consts[v-1], v)
		}
	}
	agent := caseTypes(t, files, "Agent", "onMsg")
	root := caseTypes(t, files, "Coordinator", "onMsg")
	for i, c := range consts {
		_, relayed := relaySets[msgType(i+1)]
		relayed = relayed || msgType(i+1) == msgReplicated
		switch {
		case agent[c] > 1 || root[c] > 1:
			t.Errorf("%s is dispatched more than once by one onMsg", c)
		case agent[c]+root[c] == 0:
			t.Errorf("%s is dispatched by neither Agent.onMsg nor Coordinator.onMsg", c)
		case (agent[c] > 0 && root[c] > 0) != relayed:
			t.Errorf("%s: agent=%d coordinator=%d relayed=%v — only the replies a leader relays may reach both",
				c, agent[c], root[c], relayed)
		}
	}
}

// bulkMsg is a data message using every bulk field at once.
func bulkMsg() *wireMsg {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, mem.PageSize) }
	return &wireMsg{Type: msgReplData, Seq: 9, Pod: "slm-1", Repl: &replPayload{
		Bytes:     12345,
		Holder:    2,
		ECSet:     []byte("shard manifest"),
		Blobs:     map[int][]byte{9: page('b'), 4: []byte("older blob")},
		Manifests: map[int][]byte{9: []byte("manifest nine"), 8: nil, 7: []byte("seven")},
		Chunks: []ckpt.ChunkData{
			{Hash: mem.PageHash{Lo: 1, Hi: 2}, Data: page('x')},
			{Hash: mem.PageHash{Lo: 3, Hi: 4}},
			{Hash: mem.PageHash{Lo: 5, Hi: 6}, Data: page('z')},
		},
	}}
}

// setBulk installs parts, in bulk's order, as the payload's byte slices.
func (p *replPayload) setBulk(parts [][]byte) {
	p.eachBulk(func([]byte) []byte {
		b := parts[0]
		parts = parts[1:]
		return b
	})
}

// TestBulkFrameRoundTripAliases: bulk travels raw behind the gob head and
// comes back as sub-slices of the received payload — equal contents, no
// copy — each fenced off from its neighbour.
func TestBulkFrameRoundTripAliases(t *testing.T) {
	m := bulkMsg()
	payload, parts := payloadOf(t, m)
	if len(parts) != 1+2+3+3 {
		t.Fatalf("%d parts, want one per bulk slice (9)", len(parts))
	}
	if unsafe.SliceData(parts[1]) != unsafe.SliceData(m.Repl.Blobs[4]) {
		t.Fatal("parts must be the sender's own slices (ascending sequence), not copies")
	}
	var bulk int
	for _, p := range parts {
		bulk += len(p)
	}
	if head := len(payload) - bulk; head > 2048 {
		t.Fatalf("head is %d bytes: bulk leaked into gob", head)
	}
	got, err := decodeMsg([][]byte{payload})
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
	for i, p := range got.Repl.bulk() {
		if !bytes.Equal(p, parts[i]) {
			t.Fatalf("bulk slice %d differs after the round trip", i)
		}
		if len(p) == 0 {
			continue
		}
		if at := uintptr(unsafe.Pointer(unsafe.SliceData(p))); at < lo || at >= lo+uintptr(len(payload)) {
			t.Fatalf("bulk slice %d was copied out of the frame", i)
		}
		if cap(p) != len(p) {
			t.Fatalf("bulk slice %d can grow %d bytes into its neighbour", i, cap(p)-len(p))
		}
	}
	// Everything else — including which sequences and hashes the empty
	// slices belong to — survives in the head.
	want := bulkMsg()
	got.Repl.setBulk(want.Repl.bulk())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded message differs:\n got %+v %+v\nwant %+v %+v", got, got.Repl, want, want.Repl)
	}
}

// hostileFrames returns bulk frame payloads damaged in the ways the tail
// decoder must reject, keyed by what is wrong with each.
func hostileFrames(t testing.TB) map[string][]byte {
	payload, parts := payloadOf(t, bulkMsg())
	bulk := 0
	for _, p := range parts {
		bulk += len(p)
	}
	table := len(payload) - bulk - 4*len(parts) // offset of the length table
	patch := func(entry int, v uint32) []byte {
		b := append([]byte(nil), payload...)
		binary.BigEndian.PutUint32(b[table+4*entry:], v)
		return b
	}
	ping, _ := payloadOf(t, &wireMsg{Type: msgPing})
	return map[string][]byte{
		"empty":                   {},
		"truncated-gob":           payload[:table/2],
		"truncated-table":         payload[:table+6],
		"truncated-tail":          payload[:len(payload)-100],
		"trailing-bytes":          append(append([]byte(nil), payload...), 1, 2, 3),
		"length-overruns-frame":   patch(1, uint32(len(payload))),
		"length-is-max-u32":       patch(0, 1<<32-1),
		"lengths-sum-short":       patch(len(parts)-1, 0),
		"tail-without-repl":       append(append([]byte(nil), ping...), 0, 0, 0, 1, 'x'),
		"table-overruns-frame":    payload[:table+4*len(parts)-1],
		"head-only-no-tail-bytes": payload[:table],
	}
}

// TestDecodeMsgRejectsHostileFrames: each damaged frame is an error or —
// for a head cut off cleanly before its tail, which is a well-formed
// bulk-free message — decodes to exactly what the head says; none
// allocates beyond a small multiple of its own size.
func TestDecodeMsgRejectsHostileFrames(t *testing.T) {
	for name, payload := range hostileFrames(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeMsg([][]byte{payload})
		runtime.ReadMemStats(&after)
		if name == "head-only-no-tail-bytes" {
			if err != nil || len(m.Repl.Chunks) != 3 || m.Repl.Chunks[0].Data != nil {
				t.Errorf("%s: got %+v, %v; want the stripped head", name, m, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, m)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte frame", name, grew, len(payload))
		}
	}
}

// FuzzBulkFrame: arbitrary payload bytes, split into pieces anywhere,
// decode to a message or an error, never a panic, and the split changes
// nothing: the pieces decode exactly as the joined payload does, every
// bulk slice lies inside the payload, and a bulk slice is the sub-slice
// of its piece, capped, exactly when it lies whole in one. cuts says
// where the pieces end: each byte is the length of the next piece,
// modulo what is left, so empty pieces occur too. Whatever the input
// was, a good frame decodes after it as it always did: the decoder state
// it passed through is shared.
func FuzzBulkFrame(f *testing.F) {
	valid, _ := payloadOf(f, bulkMsg())
	cuts := func(i int) []byte { return []byte{byte(37*i + 5), byte(11*i + 200), 0, byte(i)} }
	f.Add(valid, cuts(0))
	for i, in := range gobmemotest.Inputs(f, firstOf(msgReplOffer)) {
		f.Add(in.Bytes, cuts(i+1))
	}
	small, _ := payloadOf(f, &wireMsg{Type: msgReplDone, Seq: 1, Pod: "p", Repl: &replPayload{Bytes: 7}})
	f.Add(small, []byte{})
	for _, payload := range hostileFrames(f) {
		f.Add(payload, cuts(len(payload)))
	}
	f.Fuzz(func(t *testing.T, payload, cuts []byte) {
		var pieces [][]byte
		rest := payload
		for _, c := range cuts {
			k := int(c) % (len(rest) + 1)
			pieces, rest = append(pieces, rest[:k]), rest[k:]
		}
		pieces = append(pieces, rest)
		whole, errWhole := decodeMsg([][]byte{payload})
		split, errSplit := decodeMsg(pieces)
		checkGoodFrameDecodes(t, valid)
		if (errWhole == nil) != (errSplit == nil) {
			t.Fatalf("the joined payload decodes with %v, its %d pieces with %v", errWhole, len(pieces), errSplit)
		}
		if errWhole != nil {
			return
		}
		if !reflect.DeepEqual(whole, split) {
			t.Fatalf("%d pieces decode to\n%+v, the joined payload to\n%+v", len(pieces), split, whole)
		}
		if whole.Repl == nil {
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
		at := func(b []byte) (int, bool) {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			return int(p - lo), p >= lo && p < lo+uintptr(len(payload))
		}
		parts := split.Repl.bulk()
		for i, w := range whole.Repl.bulk() {
			if len(w) == 0 {
				continue
			}
			off, in := at(w)
			if !in || off+len(w) > len(payload) {
				t.Fatalf("bulk slice %d of %d bytes lies outside the %d-byte payload", i, len(w), len(payload))
			}
			start, inOne := 0, false
			for _, p := range pieces {
				if off >= start && off < start+len(p) {
					inOne = off+len(w) <= start+len(p)
					break
				}
				start += len(p)
			}
			got, aliases := at(parts[i])
			if aliases = aliases && got == off; aliases != inOne {
				t.Fatalf("bulk slice %d (%d bytes at %d) lies whole in one piece: %v; aliases it: %v", i, len(w), off, inOne, aliases)
			}
			if cap(parts[i]) != len(parts[i]) {
				t.Fatalf("bulk slice %d can grow %d bytes into its neighbour", i, cap(parts[i])-len(parts[i]))
			}
		}
	})
}

// TestBulkCrossesConnUncopied sends a data message over a real
// connection pair and checks the ownership chain end to end: the blob the
// receiving handler gets is the sender's own slice, capped — no copy on
// either side of the wire — and the codec stages nothing but the head.
func TestBulkCrossesConnUncopied(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	var got *wireMsg
	srv := ctl.NewEndpoint(cl.agents[1].kern.Stack(), msgCodec, func(_ *ctl.Link[*wireMsg], m *wireMsg) { got = m })
	if err := srv.Listen(7799); err != nil {
		t.Fatal(err)
	}
	cc, err := ctl.NewEndpoint(cl.agents[0].kern.Stack(), msgCodec, func(*ctl.Link[*wireMsg], *wireMsg) {}).Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte{0x5a}, 1<<20)
	m := &wireMsg{Type: msgReplData, Seq: 1, Pod: "p", tier: ctl.TierStream,
		Repl: &replPayload{Blobs: map[int][]byte{1: blob}, Bytes: int64(len(blob))}}
	var head bytes.Buffer
	if _, _, _, err := msgCodec.Encode(&head, m); err != nil || head.Len() > 4096 {
		t.Fatalf("codec staged %d bytes (err %v): bulk went through the head buffer", head.Len(), err)
	}
	if err := cc.Send(m); err != nil {
		t.Fatal(err)
	}
	if !cl.runUntil(func() bool { return got != nil }, 5*sim.Second) {
		t.Fatal("data message never arrived")
	}
	if !bytes.Equal(got.Repl.Blobs[1], blob) {
		t.Fatal("blob corrupted in transit")
	}
	if b := got.Repl.Blobs[1]; unsafe.SliceData(b) != unsafe.SliceData(blob) || cap(b) != len(b) {
		t.Fatal("the handler's blob is a copy, or can grow into bytes not its own: want the sender's slice, capped")
	}
	if unsafe.SliceData(m.Repl.Blobs[1]) != unsafe.SliceData(blob) {
		t.Fatal("send modified the caller's message")
	}
}
