package flush

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cruz/internal/ctl"
	"cruz/internal/gobmemo/gobmemotest"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// everyMsg returns one message per fMsgType, filled the way its sender
// fills it, plus an error reply.
func everyMsg() []*fWireMsg {
	agent := func(i int) tcpip.AddrPort {
		return tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, byte(i + 1)}, Port: DefaultControlPort}
	}
	members := []memberInfo{
		{Pod: "chat-a", PodIP: podIP(0), Agent: agent(0)},
		{Pod: "chat-b", PodIP: podIP(1), Agent: agent(1)},
	}
	tuple := tcpip.FourTuple{
		Local:  tcpip.AddrPort{Addr: podIP(1), Port: 9100},
		Remote: tcpip.AddrPort{Addr: podIP(0), Port: 40001},
	}
	return []*fWireMsg{
		{Type: fCheckpoint, Seq: 3, Pod: "chat-a", Members: members},
		{Type: fMarker, Seq: 3, Pod: "chat-b", FromPod: "chat-a", Positions: []connPos{{Tuple: tuple, Sent: 1 << 20}}},
		{Type: fDone, Seq: 3, Pod: "chat-a", LocalDuration: 91 * sim.Millisecond, FlushDuration: 3 * sim.Millisecond,
			MarkerMsgs: 1, ImageBytes: 8 << 20},
		{Type: fDone, Seq: 3, Pod: "chat-a", Err: ErrBusy.Error()},
		{Type: fContinue, Seq: 3, Pod: "chat-a"},
		{Type: fContinueDone, Seq: 3, Pod: "chat-a", LocalDuration: 20 * sim.Microsecond},
		{Type: fPing},
		{Type: fPong},
	}
}

func encode(m *fWireMsg) ([]byte, error) {
	var b bytes.Buffer
	err := fCodec.Encode(&b, m)
	return b.Bytes(), err
}

// read reads a frame as an endpoint hands it to fMsgCodec.
func read(b []byte) (*fWireMsg, error) {
	return fMsgCodec.Decode(ctl.NewPieceReader([][]byte{b}), trace.SpanContext{})
}

// TestFlushCodecIsFreshGob: E5 counts the baseline's messages and times
// them on the wire, so every message must encode to the bytes a fresh
// gob.Encoder writes.
func TestFlushCodecIsFreshGob(t *testing.T) {
	gobmemotest.Identity(t, fCodec, everyMsg()...)
}

// TestHostileFlushFrameIsDropped: every agent and coordinator in the
// process reads frames through one codec, so a damaged or hostile frame is
// dropped, and leaves no trace; so is a good message with a byte after it.
func TestHostileFlushFrameIsDropped(t *testing.T) {
	good := everyMsg()[1]
	gobmemotest.Hostile(t, fCodec, good)
	for _, in := range gobmemotest.Inputs(t, good) {
		if _, err := read(in.Bytes); (err == nil) != in.Valid {
			t.Errorf("%s: decode error %v, valid %v", in.Name, err, in.Valid)
		}
	}
	b, err := encode(good)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := read(append(b, 0)); err == nil {
		t.Errorf("a frame with a byte after its message reads as %+v", m)
	}
}

// TestFlushReaderMatchesGob holds the frame reader to gob
// (gobmemotest.Reads) on every message.
func TestFlushReaderMatchesGob(t *testing.T) {
	gobmemotest.Reads(t, encode, decodeFrame, everyMsg()...)
}

// FuzzFlushFrame: arbitrary bytes read as a flush message or an error,
// never a panic, and what is read is what a fresh gob decoder makes of the
// bytes, and re-encodes to them. The seeds, one message of every fMsgType,
// are checked in under testdata/fuzz.
func FuzzFlushFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := read(b)
		if err != nil {
			return
		}
		var ref fWireMsg
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ref); err != nil || !reflect.DeepEqual(&ref, m) {
			t.Fatalf("read %+v, a fresh gob decoder %+v (%v)", m, ref, err)
		}
		if again, err := encode(m); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("read %+v, which re-encodes to %d other bytes than its %d (%v)", m, len(again), len(b), err)
		}
	})
}

// TestFlushCodecConcurrent hammers the shared codec from several
// goroutines, the way parallel clusters in one process do.
func TestFlushCodecConcurrent(t *testing.T) {
	gobmemotest.Hammer(t, fCodec, everyMsg()...)
}
