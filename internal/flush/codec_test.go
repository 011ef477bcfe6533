package flush

import (
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
	}
}

// TestFlushCodecIsFreshGob: E5 counts the baseline's messages and times
// them on the wire, so every message must encode to the bytes a fresh
// gob.Encoder writes.
func TestFlushCodecIsFreshGob(t *testing.T) {
	gobmemotest.Identity(t, fCodec, everyMsg()...)
}

// TestHostileFlushFrameIsDropped: every agent and coordinator in the
// process shares one decoder, so a damaged or hostile frame is accepted
// or dropped exactly as a throwaway decoder would, and leaves no trace.
func TestHostileFlushFrameIsDropped(t *testing.T) {
	good := everyMsg()[1]
	gobmemotest.Hostile(t, fCodec, good)
	for _, in := range gobmemotest.Inputs(t, good) {
		if _, err := fMsgCodec.Decode(ctl.NewPieceReader([][]byte{in.Bytes}), trace.SpanContext{}); (err == nil) != in.Valid {
			t.Errorf("%s: decode error %v, valid %v", in.Name, err, in.Valid)
		}
	}
}

// TestFlushCodecConcurrent hammers the shared codec from several
// goroutines, the way parallel clusters in one process do.
func TestFlushCodecConcurrent(t *testing.T) {
	gobmemotest.Hammer(t, fCodec, everyMsg()...)
}
