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
	"cruz/internal/ether"
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

// testImage returns image seq of pod slm-1 holding pages pages, page i
// filled with fill+i, decoded from an encoding built the way ckpt builds
// one — magic, head length, gob head, pages — so that it holds pages
// without a pod behind it. Its pages lie back to back in one array, but
// each is a part of its own on the wire, as a captured image's are.
func testImage(tb testing.TB, seq, pages int, fill byte) *ckpt.Image {
	tb.Helper()
	img := ckpt.Image{PodName: "slm-1", Seq: seq, Processes: []ckpt.ProcImage{{VPID: 1, Name: "w"}}}
	for i := 0; i < pages; i++ {
		img.Processes[0].Memory.PageNums = append(img.Processes[0].Memory.PageNums, uint64(16+i))
	}
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(&img); err != nil {
		tb.Fatal(err)
	}
	empty, err := (&ckpt.Image{}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	blob := binary.BigEndian.AppendUint32(empty[:2:2], uint32(head.Len()))
	blob = append(blob, head.Bytes()...)
	for i := 0; i < pages; i++ {
		blob = append(blob, bytes.Repeat([]byte{fill + byte(i)}, mem.PageSize)...)
	}
	dec, err := ckpt.DecodeImage(blob)
	if err != nil {
		tb.Fatal(err)
	}
	return dec
}

// bulkMsg is a data message using every bulk field at once, with two
// blob-form images of several pages each.
func bulkMsg(tb testing.TB) *wireMsg {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, mem.PageSize) }
	return &wireMsg{Type: msgReplData, Seq: 9, Pod: "slm-1",
		tx: &ckpt.Transfer{Images: []*ckpt.Image{testImage(tb, 4, 2, 'b'), testImage(tb, 9, 3, 'g')}}, Repl: &replPayload{
			Bytes:     12345,
			Holder:    2,
			ECSet:     []byte("shard manifest"),
			Manifests: map[int][]byte{9: []byte("manifest nine"), 8: nil, 7: []byte("seven")},
			Chunks: []ckpt.ChunkData{
				{Hash: mem.PageHash{Lo: 1, Hi: 2}, Data: page('x')},
				{Hash: mem.PageHash{Lo: 3, Hi: 4}},
				{Hash: mem.PageHash{Lo: 5, Hi: 6}, Data: page('z')},
			},
		}}
}

// bulkEntries is bulkMsg's length-table size: one entry for the ECSet,
// each image, each manifest and each chunk.
const bulkEntries = 1 + 2 + 3 + 3

// slicesOf lists m's bulk bytes in wire order, each image as its parts:
// the ECSet, each image's head and pages, the Manifests by ascending
// sequence, then each chunk's Data.
func slicesOf(tb testing.TB, m *wireMsg) [][]byte {
	p := m.Repl
	out := [][]byte{p.ECSet}
	for _, img := range m.images() {
		var err error
		if out, err = img.AppendParts(out); err != nil {
			tb.Fatal(err)
		}
	}
	for _, seq := range ckpt.SortedSeqs(p.Manifests) {
		out = append(out, p.Manifests[seq])
	}
	for _, c := range p.Chunks {
		out = append(out, c.Data)
	}
	return out
}

// takeSlices installs from's byte slices — not its images — in p, so that
// a decoded payload, whose empty slices are not nil, compares equal to
// its source.
func (p *replPayload) takeSlices(from *replPayload) {
	p.ECSet = from.ECSet
	for seq := range p.Manifests {
		p.Manifests[seq] = from.Manifests[seq]
	}
	for i := range p.Chunks {
		p.Chunks[i].Data = from.Chunks[i].Data
	}
}

// TestBulkFrameRoundTripAliases: bulk travels raw behind the gob head,
// an image as its head and page arrays, uncopied, behind one length entry
// of its own, and comes back as sub-slices of the received payload —
// equal contents, no copy — each fenced off from its neighbour.
func TestBulkFrameRoundTripAliases(t *testing.T) {
	m := bulkMsg(t)
	payload, parts := payloadOf(t, m)
	sent := slicesOf(t, m)
	if len(parts) != len(sent) {
		t.Fatalf("%d parts, want one per bulk slice, image head and page (%d)", len(parts), len(sent))
	}
	for i := range sent {
		if unsafe.SliceData(parts[i]) != unsafe.SliceData(sent[i]) {
			t.Fatalf("part %d must be the sender's own bytes, in wire order, not a copy", i)
		}
	}
	var bulk int
	for _, p := range parts {
		bulk += len(p)
	}
	head := len(payload) - bulk
	table := payload[head-4*bulkEntries : head]
	if head > 2048 {
		t.Fatalf("head is %d bytes: bulk leaked into gob", head)
	}
	for i, img := range m.images() {
		size, err := img.Size()
		if got := binary.BigEndian.Uint32(table[4*(1+i):]); err != nil || int64(got) != size {
			t.Fatalf("image %d's length entry reads %d, want its size %d (%v)", i, got, size, err)
		}
	}
	got, err := decodeMsg(ctl.NewPieceReader([][]byte{payload}))
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
	for i, p := range slicesOf(t, got) {
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
	want := bulkMsg(t)
	got.Repl.takeSlices(want.Repl)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded message differs:\n got %+v %+v\nwant %+v %+v", got, got.Repl, want, want.Repl)
	}
}

// hostileFrames returns bulk frame payloads damaged in the ways the tail
// decoder must reject, keyed by what is wrong with each.
func hostileFrames(t testing.TB) map[string][]byte {
	payload, parts := payloadOf(t, bulkMsg(t))
	bulk := 0
	for _, p := range parts {
		bulk += len(p)
	}
	table := len(payload) - bulk - 4*bulkEntries // offset of the length table
	patch := func(entry int, v uint32) []byte {
		b := append([]byte(nil), payload...)
		binary.BigEndian.PutUint32(b[table+4*entry:], v)
		return b
	}
	// An image listed under a sequence its head does not carry.
	renamed := bulkMsg(t)
	img := *renamed.tx.Images[0]
	img.Seq = 5
	renamed.tx.Images[0] = &img
	misfiled, _ := payloadOf(t, renamed)
	ping, _ := payloadOf(t, &wireMsg{Type: msgPing})
	return map[string][]byte{
		"empty":                   {},
		"truncated-gob":           payload[:table/2],
		"truncated-table":         payload[:table+6],
		"truncated-tail":          payload[:len(payload)-100],
		"trailing-bytes":          append(append([]byte(nil), payload...), 1, 2, 3),
		"length-overruns-frame":   patch(1, uint32(len(payload))),
		"length-is-max-u32":       patch(0, 1<<32-1),
		"lengths-sum-short":       patch(bulkEntries-1, 0),
		"image-cut-short":         patch(1, binary.BigEndian.Uint32(payload[table+4:])-1),
		"image-under-other-seq":   misfiled,
		"tail-without-repl":       append(append([]byte(nil), ping...), 0, 0, 0, 1, 'x'),
		"table-overruns-frame":    payload[:table+4*bulkEntries-1],
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
		m, err := decodeMsg(ctl.NewPieceReader([][]byte{payload}))
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
// bulk slice — and every image's head and page — lies inside the
// payload, and is the sub-slice of its piece, capped, exactly when it lies
// whole in one. cuts says where the pieces end: each byte is the length
// of the next piece, modulo what is left, so empty pieces occur too.
// Whatever the input was, a good frame decodes after it as it always did,
// and a head readHead accepts is held to checkHead.
func FuzzBulkFrame(f *testing.F) {
	good := bulkMsg(f)
	valid, _ := payloadOf(f, good)
	cuts := func(i int) []byte { return []byte{byte(37*i + 5), byte(11*i + 200), 0, byte(i)} }
	f.Add(valid, cuts(0))
	images, _ := payloadOf(f, &wireMsg{Type: msgReplData, Seq: 9, Pod: "slm-1", Repl: &replPayload{},
		tx: &ckpt.Transfer{Images: []*ckpt.Image{testImage(f, 3, 4, 'a'), testImage(f, 9, 5, 'k')}}})
	f.Add(images, []byte{200, 17, 0, 255, 96, 4})
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
		whole, errWhole := decodeMsg(ctl.NewPieceReader([][]byte{payload}))
		split, errSplit := decodeMsg(ctl.NewPieceReader(pieces))
		checkGoodFrameDecodes(t, valid, good)
		checkHead(t, payload)
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
		parts := slicesOf(t, split)
		for i, w := range slicesOf(t, whole) {
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

// connPair returns the two ends of one ctl connection between two bare
// stacks on a switch, each end delivering what it receives to onMsg.
func connPair(t *testing.T, onMsg func(*wireMsg)) (*sim.Engine, *ctl.Link[*wireMsg]) {
	t.Helper()
	engine := sim.NewEngine(5)
	sw := ether.NewSwitch(engine)
	var stacks []*tcpip.Stack
	for i := byte(1); i <= 2; i++ {
		mac := ether.MAC{2, 0, 0, 0, 9, i}
		nic := ether.NewNIC(engine, "eth0", mac)
		sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(engine, "node")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 9, i}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, st)
	}
	srv := ctl.NewEndpoint(stacks[1], msgCodec, func(_ *ctl.Link[*wireMsg], m *wireMsg) { onMsg(m) })
	if err := srv.Listen(7799); err != nil {
		t.Fatal(err)
	}
	cc, err := ctl.NewEndpoint(stacks[0], msgCodec, func(*ctl.Link[*wireMsg], *wireMsg) {}).Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return engine, cc
}

// deliver sends m over cc and runs engine until the far end has it.
func deliver(t *testing.T, engine *sim.Engine, cc *ctl.Link[*wireMsg], m *wireMsg, got **wireMsg) {
	t.Helper()
	*got = nil
	if err := cc.Send(m); err != nil {
		t.Fatal(err)
	}
	for deadline := engine.Now().Add(5 * sim.Second); *got == nil && engine.Now() < deadline; {
		if err := engine.RunFor(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if *got == nil {
		t.Fatal("data message never arrived")
	}
}

// TestBulkCrossesConnUncopied sends a data message over a real
// connection pair and checks the ownership chain end to end: the image
// the receiving handler gets holds the sender's own page arrays and
// head — no copy on either side of the wire — and the codec stages
// nothing but the frame's head.
func TestBulkCrossesConnUncopied(t *testing.T) {
	var got *wireMsg
	engine, cc := connPair(t, func(m *wireMsg) { got = m })
	img := testImage(t, 1, 256, 0x5a)
	size, _ := img.Size()
	m := &wireMsg{Type: msgReplData, Seq: 1, Pod: "p", tier: ctl.TierStream,
		tx: &ckpt.Transfer{Images: []*ckpt.Image{img}}, Repl: &replPayload{Bytes: size}}
	var head bytes.Buffer
	if _, _, _, err := msgCodec.Encode(&head, m); err != nil || head.Len() > 4096 {
		t.Fatalf("codec staged %d bytes (err %v): bulk went through the head buffer", head.Len(), err)
	}
	deliver(t, engine, cc, m, &got)
	if len(got.images()) != 1 || got.images()[0] == img {
		t.Fatalf("the handler got %d images, want one read off the wire", len(got.images()))
	}
	sent, recv := slicesOf(t, m), slicesOf(t, got)
	if len(recv) != len(sent) {
		t.Fatalf("%d slices arrived for the %d sent", len(recv), len(sent))
	}
	for i := 1; i < len(sent); i++ {
		if unsafe.SliceData(recv[i]) != unsafe.SliceData(sent[i]) || cap(recv[i]) != len(recv[i]) {
			t.Fatalf("slice %d of the received image is a copy, or can grow into bytes not its own: want the sender's, capped", i)
		}
	}
	if len(m.images()) != 1 || m.images()[0] != img || m.Repl.Blobs != nil {
		t.Fatal("send modified the caller's message")
	}
}

// raceBuild is set when the race detector instruments the test binary.
var raceBuild bool

// imageFrameAllocs bounds TestImageFrameAllocsFlat's second frame: it
// costs 35, and a piece list doubled up to the frame's 2,050 pieces again
// would add 8.
const imageFrameAllocs = 40

// TestImageFrameAllocsFlat sends a 2,048-page image frame twice over one
// connection pair. The second costs a handful of allocations on both
// ends together — the head, the parts list, the decoded image — however
// many pages it carries: the receiver's piece list was sized once, for
// the first, and is not grown page by page again.
func TestImageFrameAllocsFlat(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	var got *wireMsg
	engine, cc := connPair(t, func(m *wireMsg) { got = m })
	img := testImage(t, 1, 2048, 1)
	size, _ := img.Size()
	m := &wireMsg{Type: msgReplData, Seq: 1, Pod: "p", tx: &ckpt.Transfer{Images: []*ckpt.Image{img}}, Repl: &replPayload{Bytes: size}}
	deliver(t, engine, cc, m, &got)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deliver(t, engine, cc, m, &got)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("the second frame allocates %d times", allocs)
	if allocs > imageFrameAllocs {
		t.Fatalf("the second 2,048-page frame allocates %d times, want at most %d", allocs, imageFrameAllocs)
	}
}
