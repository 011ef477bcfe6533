package ctl

import (
	"testing"

	"cruz/internal/sim"
	"cruz/internal/trace"
)

// BenchmarkMigrationStream models a migration's bulk control-plane
// traffic: a stream of large (megabyte-class) frames — pre-copy rounds —
// interleaved with small control frames, framed over simulated gigabit
// TCP. The allocs/op figure is the headline for the two-tier frame pool:
// before the bulk tier, every frame above framePoolBufCap allocated its
// full size.
func BenchmarkMigrationStream(b *testing.B) {
	const rounds = 8
	bulk := make([]byte, 1<<20)
	ctrl := make([]byte, 128)
	total := 0
	for round := 0; round < rounds; round++ {
		total += len(bulk)>>uint(round) + len(ctrl)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRig(b)
		rcvd := 0
		NewConn(r.b, func(_ *Conn, payload []byte) { rcvd += len(payload) }, nil)
		ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
		b.StartTimer()

		want := 0
		for round := 0; round < rounds; round++ {
			// Successive rounds shrink, like a converging dirty set.
			frame := bulk[:len(bulk)>>uint(round)]
			if err := ca.Send(frame); err != nil {
				b.Fatal(err)
			}
			if err := ca.Send(ctrl); err != nil {
				b.Fatal(err)
			}
			want += len(frame) + len(ctrl)
			r.engine.RunFor(50 * sim.Millisecond)
		}
		if rcvd != want {
			b.Fatalf("received %d of %d bytes", rcvd, want)
		}
		if ca.Pool.Hits == 0 {
			b.Fatal("frame pool never hit on a repetitive bulk stream")
		}
	}
}

// BenchmarkBulkFrame delivers one 8 MiB frame over a warmed connection:
// sent as one copied payload (Send), or as a small head and the 8 MiB
// as a part (SendParts), the path every store transfer takes. The
// receiver takes it as pieces, as an endpoint does. MB/s is the host's
// rate through ctl and tcpip, sender to receiver callback.
func BenchmarkBulkFrame(b *testing.B) {
	for _, parts := range []bool{false, true} {
		name := "copied"
		if parts {
			name = "parts"
		}
		b.Run(name, func(b *testing.B) {
			r := newRig(b)
			frames := 0
			newConn(r.b, func(*Conn, PieceReader) { frames++ }, nil)
			ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
			head := make([]byte, 600)
			blob := make([]byte, 8<<20)
			deliver := func() {
				var err error
				if parts {
					err = ca.SendParts(head, [][]byte{blob}, trace.SpanContext{}, TierForeground)
				} else {
					err = ca.Send(blob)
				}
				if err != nil {
					b.Fatal(err)
				}
				for want := frames + 1; frames < want; {
					if !r.engine.Step() {
						b.Fatal("engine ran dry before the frame arrived")
					}
				}
			}
			deliver()
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deliver()
			}
		})
	}
}

// BenchmarkChunkFrame delivers one frame the shape of a deduplicated or
// erasure-coded transfer over a warmed connection: a small head and 300
// page-sized parts, each in an array of its own, so every part boundary
// falls inside a segment. The receiver takes it as pieces, as an
// endpoint does. B/op and allocs/op are what crossing ctl and tcpip
// costs the host per frame; the parts themselves arrive uncopied.
func BenchmarkChunkFrame(b *testing.B) {
	r := newRig(b)
	frames := 0
	newConn(r.b, func(*Conn, PieceReader) { frames++ }, nil)
	ca := NewConn(r.a, func(*Conn, []byte) {}, nil)
	head := make([]byte, 600)
	parts := make([][]byte, 300)
	size := len(head)
	for i := range parts {
		parts[i] = make([]byte, 4096)
		size += len(parts[i])
	}
	deliver := func() {
		if err := ca.SendParts(head, parts, trace.SpanContext{}, TierForeground); err != nil {
			b.Fatal(err)
		}
		for want := frames + 1; frames < want; {
			if !r.engine.Step() {
				b.Fatal("engine ran dry before the frame arrived")
			}
		}
	}
	deliver()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
}
