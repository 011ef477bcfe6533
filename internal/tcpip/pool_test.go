package tcpip

import (
	"runtime"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/sim"
)

// TestSegPoolRecycles pins the send-path free list: a bulk transfer must
// mostly reuse segment buffers (pool hits) rather than allocate one per
// segment, and the data must still arrive intact.
func TestSegPoolRecycles(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 9000)
	src := tn.stacks[0]

	// Interleave sending and draining so the stream flows at window
	// speed (a send-everything-then-read pattern would stall on the
	// receive window and trickle through persist probes instead).
	data := pattern(512<<10, 3)
	got := make([]byte, 0, len(data))
	buf := make([]byte, 16384)
	sent := 0
	for len(got) < len(data) {
		for sent < len(data) {
			n, err := c.Send(data[sent:])
			if err != nil {
				break
			}
			sent += n
		}
		tn.run(sim.Millisecond)
		for {
			n, err := s.Recv(buf, false)
			if err != nil || n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
	}
	bytesEqual(t, got, data, "pooled bulk transfer")

	segs := int(c.Stats.SegsSent)
	hits := int(src.Stats.SegPoolHits)
	misses := int(src.Stats.SegPoolMisses)
	if hits+misses == 0 {
		t.Fatal("segment pool never consulted")
	}
	// The first window's worth of segments miss; steady state must hit.
	if hits < segs/2 {
		t.Errorf("pool hits %d of %d data segments (misses %d): free list not engaging", hits, segs, misses)
	}
	if len(src.segPool) > segPoolMax {
		t.Errorf("pool grew past its bound: %d > %d", len(src.segPool), segPoolMax)
	}
}

// TestSegPoolSurvivesRetransmit: buffers of retransmitted segments are
// never recycled (a duplicate frame may still be in flight), and the
// stream stays correct across loss.
func TestSegPoolSurvivesRetransmit(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 9001)

	tn.sw.SetDropRate(tn.nics[1], 0.2)
	data := pattern(128<<10, 9)
	tn.sendAll(c, data)
	tn.sw.SetDropRate(tn.nics[1], 0)
	tn.run(2 * sim.Second) // let recovery finish
	got := tn.recvN(s, len(data))
	bytesEqual(t, got, data, "pooled transfer across 20% loss")
	if c.Stats.Retransmits == 0 {
		t.Skip("no retransmits at this seed; loss path not exercised")
	}
}

// BenchmarkTCPBulkTransfer measures the segment send path end to end
// (packetize, transmit, deliver, ACK) over simulated gigabit. The
// allocs/op figure is the pooling ablation's headline.
func BenchmarkTCPBulkTransfer(b *testing.B) {
	chunk := pattern(64<<10, 1)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := sim.NewEngine(7)
		sw := ether.NewSwitch(engine)
		stacks := make([]*Stack, 2)
		for j := 0; j < 2; j++ {
			nic := ether.NewNIC(engine, "eth0", macOf(j))
			sw.Attach(nic, ether.GigabitLink)
			st := NewStack(engine, "node")
			if _, err := st.AddInterface("eth0", addrOf(j), macOf(j), nic, false); err != nil {
				b.Fatal(err)
			}
			stacks[j] = st
		}
		l, _ := stacks[1].ListenTCP(AddrPort{Addr: addrOf(1), Port: 9002}, 8)
		c, _ := stacks[0].DialTCP(AddrPort{Addr: addrOf(0)}, AddrPort{Addr: addrOf(1), Port: 9002})
		_ = engine.RunFor(50 * sim.Millisecond)
		s, _ := l.Accept()
		l.Close()
		b.StartTimer()

		sent, rcvd := 0, 0
		buf := make([]byte, 16384)
		for rcvd < len(chunk) {
			for sent < len(chunk) {
				n, err := c.Send(chunk[sent:])
				if err != nil {
					break
				}
				sent += n
			}
			_ = engine.RunFor(sim.Millisecond)
			for {
				n, err := s.Recv(buf, false)
				if err != nil || n == 0 {
					break
				}
				rcvd += n
			}
		}
	}
}

// TestBulkTransferAllocatesPerSegment pins the segment path's floor: on a
// warmed connection pair, moving 1 MiB allocates nothing per segment on
// the wire and nothing proportional to the bytes moved. Packets come back
// to their builder's free list once delivered, payload buffers come from
// the segment pool, the send queue and the rings reuse their arrays,
// frames in flight sit in per-port queues, events are recycled, and the
// RTO callback is bound once per connection.
func TestBulkTransferAllocatesPerSegment(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 9003)
	data := pattern(1<<20, 5)
	buf := make([]byte, 16384)
	move := func() {
		sent, rcvd := 0, 0
		for rcvd < len(data) {
			for sent < len(data) {
				n, err := c.Send(data[sent:])
				if err != nil {
					break
				}
				sent += n
			}
			tn.run(sim.Millisecond)
			for {
				n, err := s.Recv(buf, false)
				if err != nil {
					break
				}
				rcvd += n
			}
		}
	}
	// Warm up: the rings and the engine's event heap reach their
	// high-water marks and the pool fills.
	move()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	move()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc - before.TotalAlloc)
	const runs = 3
	dataBefore, wireBefore := c.Stats.SegsSent, c.Stats.SegsSent+s.Stats.SegsSent
	allocs := testing.AllocsPerRun(runs, move)
	// AllocsPerRun moves the data runs+1 times (one warm-up).
	segs := float64(c.Stats.SegsSent-dataBefore) / (runs + 1)
	wire := float64(c.Stats.SegsSent+s.Stats.SegsSent-wireBefore) / (runs + 1)
	t.Logf("%.0f data segments, %.0f on the wire: %.2f allocations and %.0f bytes allocated per data segment",
		segs, wire, allocs/segs, bytes/segs)
	if allocs > wire/100 {
		t.Errorf("%.0f allocations for %.0f segments on the wire: more than 0.01 per segment", allocs, wire)
	}
	if bytes > float64(len(data))/2 {
		t.Errorf("%.0f bytes allocated to move %d: allocation scales with the bytes, not the segments", bytes, len(data))
	}
}
