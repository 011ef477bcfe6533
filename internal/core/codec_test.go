package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/ether"
	"cruz/internal/gobmemo/gobmemotest"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// everyMsg returns one message per msgType, populated the way its sender
// populates it, plus the variants that set fields no first entry does (a
// shard offer, a reconstructing fetch, an error reply). Maps hold one
// entry each, so that every message has a single gob encoding.
func everyMsg() []*wireMsg {
	const seq, pod, job = 3, "slm-0", "ring"
	hashes := []mem.PageHash{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}}
	peer := tcpip.Addr{10, 0, 0, 2}
	group := []GroupMember{{Pod: "slm-0", IP: tcpip.Addr{10, 0, 0, 1}, Port: 7077}, {Pod: "slm-1", IP: peer, Port: 7077}}
	reports := func(local, blocked sim.Duration, bytes int64) []GroupReport {
		return []GroupReport{
			{Pod: "slm-0", LocalDuration: local, BlockedDuration: blocked, ImageBytes: bytes},
			{Pod: "slm-1", LocalDuration: local, BlockedDuration: blocked, ImageBytes: bytes},
		}
	}
	page := bytes.Repeat([]byte{'x'}, mem.PageSize)
	return []*wireMsg{
		{Type: msgCheckpoint, Seq: seq, Pod: pod, Incremental: true, Optimized: true, COW: true, Dedup: true, Pipeline: true,
			Replicas: 1, PrecopyRounds: 4, PrecopyThresholdPages: 64, PrecopyMinGain: 0.25},
		{Type: msgCommDisabled, Seq: seq, Pod: pod},
		{Type: msgDone, Seq: seq, Pod: pod, LocalDuration: 91 * sim.Millisecond, ImageBytes: 8 << 20},
		{Type: msgContinue, Seq: seq, Pod: pod},
		{Type: msgContinueDone, Seq: seq, Pod: pod, LocalDuration: 300 * sim.Microsecond, BlockedDuration: 95 * sim.Millisecond},
		{Type: msgRestart, Seq: seq, Pod: pod},
		{Type: msgDone, Seq: seq, Pod: pod, LocalDuration: 57 * sim.Millisecond, ImageBytes: 8 << 20},
		{Type: msgAbort, Seq: seq, Pod: pod},
		{Type: msgPing},
		{Type: msgPong, Load: 2},
		{Type: msgReplOffer, Seq: seq, Pod: pod, Repl: &replPayload{Chain: []int{3, 2}, Dedup: true, Hashes: hashes}},
		{Type: msgReplOffer, Seq: seq, Pod: pod, Repl: &replPayload{Chain: []int{3, 2}, Dedup: true, Hashes: hashes, Holder: 2, ECM: 4}},
		{Type: msgReplWant, Seq: seq, Pod: pod, Repl: &replPayload{Holder: 2, NeedSeqs: []int{3}, NeedHashes: hashes[:1]}},
		{Type: msgReplData, Seq: seq, Pod: pod, tx: &ckpt.Transfer{Images: []*ckpt.Image{{PodName: pod, Seq: seq}}}, Repl: &replPayload{
			Manifests: map[int][]byte{3: []byte("manifest")},
			Chunks:    []ckpt.ChunkData{{Hash: hashes[0], Data: page}, {Hash: hashes[1]}},
			Bytes:     2 * mem.PageSize, ECSet: []byte("shard manifest"), Holder: 2,
		}},
		{Type: msgReplDone, Seq: seq, Pod: pod, Repl: &replPayload{Bytes: 2 * mem.PageSize, Holder: 2}},
		{Type: msgReplicated, Seq: seq, Pod: pod, Repl: &replPayload{Bytes: 8 << 20, PeerIP: peer, PeerPort: 7077, Holder: 2, ECM: 4}},
		{Type: msgFetch, Seq: seq, Pod: pod, Repl: &replPayload{PeerIP: peer, PeerPort: 7077}},
		{Type: msgFetch, Seq: seq, Pod: pod, Repl: &replPayload{Sources: []GroupMember{{IP: peer, Port: 7077}}}},
		{Type: msgFetchPull, Seq: seq, Pod: pod},
		{Type: msgFetchDone, Seq: seq, Pod: pod, LocalDuration: 12 * sim.Millisecond, Repl: &replPayload{Bytes: 8 << 20}},
		{Type: msgFetchDone, Seq: seq, Pod: pod, Err: ErrUnknownPod.Error()},
		// A migration between its source and destination: the checkpoint
		// naming the destination, the restart naming the source that arms
		// the destination, the handover, the destination's report and the
		// source's (the commit is the plain continue above).
		{Type: msgCheckpoint, Seq: seq, Pod: pod, Incremental: true, Dedup: true, Pipeline: true,
			PrecopyRounds: 4, PrecopyThresholdPages: 64, PrecopyMinGain: 0.25, Repl: &replPayload{PeerIP: peer, PeerPort: 7077}},
		{Type: msgRestart, Seq: seq, Pod: pod, Repl: &replPayload{PeerIP: peer, PeerPort: 7077}},
		{Type: msgContinue, Seq: seq, Pod: pod, FrozeAt: sim.Time(3 * sim.Second)},
		{Type: msgDone, Seq: seq, Pod: pod, LocalDuration: 40 * sim.Millisecond, BlockedDuration: 13 * sim.Millisecond, ImageBytes: 8 << 20},
		{Type: msgContinueDone, Seq: seq, Pod: pod, RoundPages: []int{2048, 310, 42}, ImageBytes: 9 << 20},
		// The same eight as a leader sees them: by job, with its relay list
		// on the way down and the group's batch on the way up.
		{Type: msgCheckpoint, Seq: seq, Job: job, Group: group, Incremental: true, Dedup: true, Replicas: 1},
		{Type: msgRestart, Seq: seq, Job: job, Group: group},
		{Type: msgContinue, Seq: seq, Job: job},
		{Type: msgAbort, Seq: seq, Job: job},
		{Type: msgCommDisabled, Seq: seq, Job: job, Reports: reports(0, 0, 0)},
		{Type: msgDone, Seq: seq, Job: job, Reports: reports(91*sim.Millisecond, 0, 8<<20)},
		{Type: msgDone, Seq: seq, Job: job, Pod: pod, Err: ErrUnknownPod.Error()},
		{Type: msgDone, Seq: seq, Job: job, Reports: reports(57*sim.Millisecond, 0, 8<<20)},
		{Type: msgContinueDone, Seq: seq, Job: job, Reports: reports(300*sim.Microsecond, 95*sim.Millisecond, 0)},
	}
}

// firstOf returns everyMsg's first message of type typ.
func firstOf(typ msgType) *wireMsg {
	for _, m := range everyMsg() {
		if m.Type == typ {
			return m
		}
	}
	panic("no " + typ.String() + " in everyMsg")
}

// heads returns what encodeMsg hands gob for each message: the message
// itself, or for one carrying bulk a copy with the bulk emptied.
func heads(msgs []*wireMsg) []*wireMsg {
	out := make([]*wireMsg, len(msgs))
	for i, m := range msgs {
		out[i] = m
		if m.Repl != nil {
			head := *m
			head.Repl = m.Repl.stripped(m.images())
			out[i] = &head
		}
	}
	return out
}

// TestWireCodecIsFreshGob is the contract the virtual clock rests on: for
// every message type, the memoised codec writes the bytes a fresh
// gob.Encoder writes, and the two decode each other's output alike.
func TestWireCodecIsFreshGob(t *testing.T) {
	msgs := everyMsg()
	seen := map[msgType]bool{}
	for _, m := range msgs {
		seen[m.Type] = true
	}
	for typ := range msgNames {
		if !seen[typ] {
			t.Errorf("no %v in the table", typ)
		}
	}
	gobmemotest.Identity(t, wireCodec, heads(msgs)...)
}

// TestHostileFrameCannotPoisonTheCodec: every connection of every node in
// the process reads heads through one codec, so no frame may leave a trace
// in it. decodeMsg takes of gobmemotest's damaged and hostile heads the
// good encoding alone, and no head that carries bulk bytes, which travel
// behind it. A known-good frame decoded straight after each still comes
// back as it was sent.
func TestHostileFrameCannotPoisonTheCodec(t *testing.T) {
	offer := firstOf(msgReplOffer)
	gobmemotest.Hostile(t, wireCodec, offer)
	want := bulkMsg(t)
	payload, _ := payloadOf(t, want)
	for _, in := range gobmemotest.Inputs(t, offer) {
		got, err := decodeMsg(ctl.NewPieceReader([][]byte{in.Bytes}))
		if (err == nil) != in.Valid {
			t.Errorf("%s: decodeMsg returns %v", in.Name, err)
		} else if err == nil && !reflect.DeepEqual(got, offer) {
			t.Errorf("%s: decodeMsg returns %+v, want %+v", in.Name, got, offer)
		}
		checkGoodFrameDecodes(t, payload, want)
	}
	bulk := []byte("bulk")
	for name, p := range map[string]*replPayload{
		"ECSet":     {ECSet: bulk},
		"Blobs":     {Blobs: map[int][]byte{3: bulk}},
		"Manifests": {Manifests: map[int][]byte{3: bulk}},
		"Chunks":    {Chunks: []ckpt.ChunkData{{Hash: mem.PageHash{Lo: 1}, Data: bulk}}},
	} {
		var head bytes.Buffer
		if err := wireCodec.Encode(&head, &wireMsg{Type: msgReplData, Seq: 3, Repl: p}); err != nil {
			t.Fatal(err)
		}
		if got, err := decodeMsg(ctl.NewPieceReader([][]byte{head.Bytes()})); err == nil {
			t.Errorf("a head with bytes in %s decodes to %+v", name, got)
		}
	}
}

// filled returns a wireMsg with every exported field reachable from it set
// to a value that is not zero — a pointer to a filled value, two elements
// per slice, two entries per map — with the numbers counting up from one,
// or (big) down from their type's widest, negative for a signed one. The
// bulk byte slices stay empty, as encodeMsg leaves them in a head: a
// map's values, ECSet and a chunk's Data.
func filled(t *testing.T, big bool) *wireMsg {
	k := 0
	next := func() int { k++; return k }
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() != reflect.Uint8 {
				v.Set(reflect.MakeSlice(v.Type(), 2, 2))
				fill(v.Index(0))
				fill(v.Index(1))
			}
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for range 2 {
				key := reflect.New(v.Type().Key()).Elem()
				fill(key)
				v.SetMapIndex(key, reflect.Zero(v.Type().Elem()))
			}
		case reflect.Int, reflect.Int64:
			if x := int64(next()); big {
				v.SetInt(-x << 40)
			} else {
				v.SetInt(x)
			}
		case reflect.Uint8, reflect.Uint16, reflect.Uint64:
			if x := uint64(next()); big {
				v.SetUint(1<<(8*v.Type().Size()) - 1 - x)
			} else {
				v.SetUint(x)
			}
		case reflect.Float64:
			v.SetFloat(float64(next()) / 8)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(fmt.Sprint("s", next()))
		default:
			t.Fatalf("no filler for %v", v.Type())
		}
	}
	m := new(wireMsg)
	fill(reflect.ValueOf(m).Elem())
	return m
}

// TestHeadReaderMatchesGob holds decodeMsg's reader of a head to gob
// (gobmemotest.Reads) on messages with every field set, a Repl whose
// fields are all zero, and one message of every type.
func TestHeadReaderMatchesGob(t *testing.T) {
	msgs := []*wireMsg{filled(t, false), filled(t, true), {Type: msgPing, Repl: &replPayload{}}}
	for _, m := range msgs[:2] {
		var b bytes.Buffer
		if err := wireCodec.Encode(&b, m); err != nil {
			t.Fatal(err)
		}
		var sent wireMsg
		if err := gob.NewDecoder(bytes.NewReader(b.Bytes())).Decode(&sent); err != nil || !reflect.DeepEqual(&sent, m) {
			t.Fatalf("gob does not carry every field the filler set (%v):\n%+v %+v, sent\n%+v %+v", err, sent, sent.Repl, m, m.Repl)
		}
	}
	encode := func(m *wireMsg) ([]byte, error) {
		var b bytes.Buffer
		err := wireCodec.Encode(&b, m)
		return b.Bytes(), err
	}
	read := func(b []byte) (*wireMsg, error) { return decodeMsg(ctl.NewPieceReader([][]byte{b})) }
	gobmemotest.Reads(t, encode, read, append(msgs, heads(everyMsg())...)...)
}

// checkHead holds readHead to what gob.Encoder writes: a head it accepts
// at the front of b is one gob's decoder accepts too, with the same
// result, and re-encodes to its own bytes — up to the order of a map's
// entries, which gob.Encoder does not fix (FuzzDecodeECSet's rule).
func checkHead(t *testing.T, b []byte) {
	m, n, err := readHead(b)
	if err != nil {
		return
	}
	head := b[:n]
	var ref wireMsg
	if err := gob.NewDecoder(bytes.NewReader(head)).Decode(&ref); err != nil {
		t.Fatalf("readHead accepts a head gob rejects (%v): %+v", err, m)
	}
	if !reflect.DeepEqual(m, &ref) {
		t.Fatalf("readHead reads\n%+v %+v, gob\n%+v %+v", m, m.Repl, ref, ref.Repl)
	}
	var re bytes.Buffer
	if err := wireCodec.Encode(&re, m); err != nil {
		t.Fatal(err)
	}
	reordered := m.Repl != nil && (len(m.Repl.Blobs) > 1 || len(m.Repl.Manifests) > 1)
	if !bytes.Equal(re.Bytes(), head) && !(reordered && re.Len() == len(head)) {
		t.Fatalf("an accepted head of %d bytes re-encodes to %d other bytes", len(head), re.Len())
	}
}

// FuzzControlHead: arbitrary bytes never panic readHead, and what it
// accepts is held to checkHead.
func FuzzControlHead(f *testing.F) {
	for _, m := range heads(everyMsg()) {
		var b bytes.Buffer
		if err := wireCodec.Encode(&b, m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(checkHead)
}

// checkGoodFrameDecodes decodes the payload of want, a bulkMsg, and
// compares the result with it.
func checkGoodFrameDecodes(t testing.TB, payload []byte, want *wireMsg) {
	t.Helper()
	got, err := decodeMsg(ctl.NewPieceReader([][]byte{payload}))
	if err != nil {
		t.Fatalf("a good frame no longer decodes: %v", err)
	}
	gotSlices := slicesOf(t, got)
	for i, p := range slicesOf(t, want) {
		if !bytes.Equal(gotSlices[i], p) {
			t.Fatalf("a good frame's bulk slice %d comes back changed", i)
		}
	}
	got.Repl.takeSlices(want.Repl) // a decoded empty slice is not nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a good frame decodes to\n%+v %+v, want\n%+v %+v", got, got.Repl, want, want.Repl)
	}
}

// TestWireCodecConcurrent hammers the shared codec from several
// goroutines, the way parallel clusters in one process do.
func TestWireCodecConcurrent(t *testing.T) {
	gobmemotest.Hammer(t, wireCodec, heads(everyMsg())...)
}

// roundTrip encodes m into buf and decodes the payload back.
func roundTrip(tb testing.TB, buf *bytes.Buffer, m *wireMsg) *wireMsg {
	buf.Reset()
	if _, err := encodeMsg(buf, m); err != nil {
		tb.Fatal(err)
	}
	got, err := decodeMsg(ctl.NewPieceReader([][]byte{buf.Bytes()}))
	if err != nil {
		tb.Fatal(err)
	}
	return got
}

// TestControlCodecAllocs is the allocation budget of an encode+decode
// round trip of the three frames the control plane sends most: the
// decoded message and, of what it carries, each string, slice and Repl —
// a done's pod name; an offer's pod name, Repl, chain and hash list, and
// one allocation of gob's encoder. Rebuilding gob's type machinery per
// frame cost 515 for a ping, and gob's decoder 2, 3 and 12.
func TestControlCodecAllocs(t *testing.T) {
	for _, tc := range []struct {
		typ    msgType
		allocs float64
	}{{msgPing, 1}, {msgDone, 2}, {msgReplOffer, 6}} {
		var buf bytes.Buffer
		m := firstOf(tc.typ)
		if avg := testing.AllocsPerRun(100, func() { roundTrip(t, &buf, m) }); avg > tc.allocs {
			t.Errorf("%v encode+decode allocates %.0f times, want at most %.0f", tc.typ, avg, tc.allocs)
		}
	}
}

// BenchmarkControlCodec measures an encode+decode round trip of the three
// frames the control plane sends most.
func BenchmarkControlCodec(b *testing.B) {
	for _, typ := range []msgType{msgPing, msgDone, msgReplOffer} {
		m := firstOf(typ)
		b.Run(m.Type.String(), func(b *testing.B) {
			var buf bytes.Buffer
			roundTrip(b, &buf, m)
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip(b, &buf, m)
			}
		})
	}
}

// TestHeartbeatAllocs bounds one ping → pong round trip between a
// coordinator and an agent on one engine, both ends and the wire between
// them: each decoded message. Receiving a frame (the decoder borrows the
// connection's stage and copies what it keeps), deferring a message on a
// daemon's lane, queueing a frame for TCP and sending the ping or the
// agent's pong allocate nothing.
func TestHeartbeatAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	engine := sim.NewEngine(7)
	sw := ether.NewSwitch(engine)
	var kerns []*kernel.Kernel
	for i := byte(1); i <= 2; i++ {
		mac := ether.MAC{2, 0, 0, 0, 8, i}
		nic := ether.NewNIC(engine, "eth0", mac)
		sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(engine, "node")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 8, i}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		kerns = append(kerns, kernel.New(engine, "node", st))
	}
	agent, err := NewAgent(kerns[0], ckpt.NewStore(kerns[0].Disk()))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(kerns[1].Stack())
	c.RegisterNode("node", agent.Addr())
	c.ep.Connect([]tcpip.AddrPort{agent.Addr()}, nil)
	if err := engine.RunFor(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	link, ok := c.ep.Link(agent.Addr())
	if !ok {
		t.Fatal("the coordinator never connected")
	}
	roundTrip := func() {
		pongs := link.Received
		c.ping(agent.Addr())
		if err := engine.RunFor(5 * sim.Millisecond); err != nil || link.Received != pongs+1 {
			t.Fatalf("no pong (%v)", err)
		}
	}
	roundTrip() // warm-up: pools, rings and queues reach their working size
	if avg := testing.AllocsPerRun(20, roundTrip); avg > heartbeatAllocs {
		t.Errorf("a ping → pong round trip allocates %.0f times, want at most %d", avg, heartbeatAllocs)
	}
}

// heartbeatAllocs is TestHeartbeatAllocs' bound: the two decoded
// messages. With a closure per lane hop, per ping and per queued frame,
// and gob's decoder, it cost 13; with a buffer of its own per received
// frame and a fresh pong, 5.
const heartbeatAllocs = 2

// TestFlatDoneAllocs bounds what the coordinator allocates to count one
// member's own <done> — a reply with no batch — in an open checkpoint
// that waits on another member still: the lookup of its op, the trace
// instant, the arrival and the report it keeps.
func TestFlatDoneAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation bounds are for builds without the race detector")
	}
	engine := sim.NewEngine(7)
	c := NewCoordinator(tcpip.NewStack(engine, "coord"))
	job := &Job{Name: "ring", Members: []Member{{Pod: "slm-0"}, {Pod: "slm-1"}}}
	op, err := c.begin("checkpoint", job, 1)
	if err != nil {
		t.Fatal(err)
	}
	op.Expect("done", "slm-1")
	op.reports = make([]PodReport, 0, 1)
	m := &wireMsg{Type: msgDone, Seq: 1, Pod: "slm-0", LocalDuration: sim.Millisecond}
	arrive := func() {
		op.Expect("done", "slm-0")
		op.reports = op.reports[:0]
		c.onMsg(nil, m)
		if op.Arrive("done", "slm-0") || len(op.reports) != 1 || !op.Active() {
			t.Fatal("the done was not counted")
		}
	}
	arrive()
	if avg := testing.AllocsPerRun(20, arrive); avg > flatDoneAllocs {
		t.Errorf("a flat done allocates %.0f times at the coordinator, want at most %d", avg, flatDoneAllocs)
	}
}

// flatDoneAllocs is TestFlatDoneAllocs' bound. With the batch of one and
// the instant's name built per reply, it cost 2; with a sorted key list
// per walk of the table (ctl.Table.Each), 1.
const flatDoneAllocs = 0
