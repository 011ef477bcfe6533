package core

import (
	"bytes"
	"reflect"
	"testing"

	"cruz/internal/ckpt"
	"cruz/internal/gobmemo/gobmemotest"
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

// TestHostileFrameCannotPoisonTheCodec: the decoder state is shared by
// every connection of every node in the process, so no frame may leave a
// trace in it — each damaged or hostile gob head is rejected (or accepted)
// exactly as a throwaway decoder would, and a known-good frame decoded
// straight afterwards still comes back as it was sent.
func TestHostileFrameCannotPoisonTheCodec(t *testing.T) {
	offer := firstOf(msgReplOffer)
	gobmemotest.Hostile(t, wireCodec, offer)
	want := bulkMsg(t)
	payload, _ := payloadOf(t, want)
	for _, in := range gobmemotest.Inputs(t, offer) {
		if _, err := decodeMsg([][]byte{in.Bytes}); (err == nil) != in.Valid {
			t.Errorf("%s: decodeMsg returns %v", in.Name, err)
		}
		checkGoodFrameDecodes(t, payload, want)
	}
}

// checkGoodFrameDecodes decodes the payload of want, a bulkMsg, and
// compares the result with it.
func checkGoodFrameDecodes(t testing.TB, payload []byte, want *wireMsg) {
	t.Helper()
	got, err := decodeMsg([][]byte{payload})
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
	got, err := decodeMsg([][]byte{buf.Bytes()})
	if err != nil {
		tb.Fatal(err)
	}
	return got
}

// TestControlCodecAllocs is the allocation budget of a heartbeat: the
// message, gob's copy of its bytes and little else. Rebuilding gob's type
// machinery per frame cost 515.
func TestControlCodecAllocs(t *testing.T) {
	var buf bytes.Buffer
	ping := &wireMsg{Type: msgPing}
	if avg := testing.AllocsPerRun(100, func() { roundTrip(t, &buf, ping) }); avg > 8 {
		t.Errorf("ping encode+decode allocates %.0f times, want at most 8", avg)
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
