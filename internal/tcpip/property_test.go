package tcpip

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"cruz/internal/sim"
)

// TestPropertyStreamIntegrityUnderLoss drives random bidirectional
// traffic over a lossy link and asserts TCP's contract: every byte
// arrives, exactly once, in order.
func TestPropertyStreamIntegrityUnderLoss(t *testing.T) {
	for _, loss := range []float64{0, 0.01, 0.05, 0.1} {
		loss := loss
		t.Run("", func(t *testing.T) {
			tn := newTestNet(t, 2)
			c, s := tn.connect(0, 1, 5000)
			// Loss on node0's link hits both data out and ACKs in.
			tn.sw.SetDropRate(tn.nics[0], loss)
			rng := rand.New(rand.NewSource(int64(loss*1000) + 17))

			var wantCS, wantSC []byte
			for i := 0; i < 30; i++ {
				n := rng.Intn(8000) + 1
				chunk := pattern(n, byte(i))
				if rng.Intn(2) == 0 {
					tn.sendAll(c, chunk)
					wantCS = append(wantCS, chunk...)
				} else {
					tn.sendAll(s, chunk)
					wantSC = append(wantSC, chunk...)
				}
			}
			gotCS := tn.recvN(s, len(wantCS))
			gotSC := tn.recvN(c, len(wantSC))
			if !bytes.Equal(gotCS, wantCS) {
				t.Fatalf("loss=%v: client->server stream corrupted", loss)
			}
			if !bytes.Equal(gotSC, wantSC) {
				t.Fatalf("loss=%v: server->client stream corrupted", loss)
			}
			if loss > 0 && c.Stats.Retransmits+s.Stats.Retransmits == 0 {
				t.Fatalf("loss=%v but no retransmissions happened", loss)
			}
		})
	}
}

// TestPropertyCheckpointAnytimePreservesStream checkpoints both endpoints
// at random moments while traffic flows and asserts the §5.1 consistency
// result: the restored system delivers the exact original byte stream with
// no loss, duplication, or reordering — even though every checkpoint
// discards all in-flight packets. The receiver reads in random partial
// amounts and the sender keeps writing into the frozen network, so many
// captures land while the pending and receive rings are wrapped and while
// the send queue's oldest segment sits past the first slot of its array:
// the saved buffers and segment boundaries must be the linear stream
// regardless.
func TestPropertyCheckpointAnytimePreservesStream(t *testing.T) {
	wrappedPending, wrappedRcv, shiftedSegs := 0, 0, 0
	defer func() {
		t.Logf("captures with a wrapped ring: pending %d, rcvQueue %d; with segs off their first slot: %d",
			wrappedPending, wrappedRcv, shiftedSegs)
		// A frozen receiver's window closes, so most captures find every
		// segment acknowledged and the bytes still pending: fewer land on
		// a non-empty send queue.
		if !t.Failed() && (wrappedPending < 4 || wrappedRcv < 4 || shiftedSegs < 2) {
			t.Errorf("captures with a wrapped ring: pending %d, rcvQueue %d; with segs off their first slot: %d; the traffic no longer exercises them",
				wrappedPending, wrappedRcv, shiftedSegs)
		}
	}()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			tn := newTestNet(t, 2)
			c, s := tn.connect(0, 1, 5000)
			rng := rand.New(rand.NewSource(seed))

			var want, gotTotal []byte
			buf := make([]byte, 32768)
			pushed := 0
			read := 0

			drain := func(conn *TCPConn) {
				for {
					n, err := conn.Recv(buf, false)
					if err != nil {
						return
					}
					gotTotal = append(gotTotal, buf[:n]...)
					read += n
				}
			}
			// drainSome reads at most max bytes, leaving a residue at a
			// moving ring head.
			drainSome := func(conn *TCPConn, max int) {
				if n, err := conn.Recv(buf[:max], false); err == nil {
					gotTotal = append(gotTotal, buf[:n]...)
					read += n
				}
			}

			for round := 0; round < 6; round++ {
				// Random traffic, partially drained.
				for i := 0; i < 40; i++ {
					chunk := pattern(rng.Intn(9000)+1, byte(rng.Intn(256)))
					want = append(want, chunk...)
					pushed += len(chunk)
					rem := chunk
					for len(rem) > 0 {
						n, err := c.Send(rem)
						if err == ErrWouldBlock {
							tn.run(5 * sim.Millisecond)
							drainSome(s, 20000)
							continue
						}
						if err != nil {
							t.Fatalf("send: %v", err)
						}
						rem = rem[n:]
					}
					tn.run(sim.Duration(rng.Intn(int(2 * sim.Millisecond))))
					if rng.Intn(3) > 0 {
						drainSome(s, rng.Intn(8000)+1)
					}
				}

				// Checkpoint at an arbitrary instant: disable comms,
				// capture, destroy, restore, re-enable. The application
				// is not stopped yet when communication goes down, so it
				// writes a little more into the void.
				thaw := freeze(tn, 0, 1)
				for i := rng.Intn(4); i > 0; i-- {
					chunk := pattern(rng.Intn(5000)+1, byte(rng.Intn(256)))
					if n, err := c.Send(chunk); err == nil {
						want = append(want, chunk[:n]...)
						pushed += n
					}
				}
				tn.run(sim.Duration(rng.Intn(int(3 * sim.Millisecond))))
				if c.pending.wrapped() {
					wrappedPending++
				}
				if s.rcvQueue.wrapped() {
					wrappedRcv++
				}
				if c.segs.Len() > 0 && reflect.ValueOf(&c.segs).Elem().FieldByName("head").Int() != 0 {
					shiftedSegs++
				}
				stC, err := c.CaptureState()
				if err != nil {
					t.Fatalf("capture client: %v", err)
				}
				stS, err := s.CaptureState()
				if err != nil {
					t.Fatalf("capture server: %v", err)
				}
				c.Destroy()
				s.Destroy()
				if c, err = tn.stacks[0].RestoreTCP(stC); err != nil {
					t.Fatalf("restore client: %v", err)
				}
				if s, err = tn.stacks[1].RestoreTCP(stS); err != nil {
					t.Fatalf("restore server: %v", err)
				}
				thaw()
				tn.run(sim.Duration(rng.Intn(int(10 * sim.Millisecond))))
				drain(s)
			}

			// Final drain: everything pushed must arrive.
			deadline := 0
			for read < pushed {
				tn.run(20 * sim.Millisecond)
				drain(s)
				deadline++
				if deadline > 5000 {
					t.Fatalf("stalled: read %d of %d", read, pushed)
				}
			}
			if !bytes.Equal(gotTotal, want) {
				t.Fatalf("seed %d: stream corrupted across %d checkpoints (len %d vs %d)",
					seed, 6, len(gotTotal), len(want))
			}
		})
	}
}

// TestPropertyInvariantAtEveryCapture samples the §5.1 TCP invariant
// (unack_nxt <= rcv_nxt <= snd_nxt) at many random capture points.
func TestPropertyInvariantAtEveryCapture(t *testing.T) {
	tn := newTestNet(t, 2)
	c, s := tn.connect(0, 1, 5000)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		chunk := pattern(rng.Intn(4000)+1, byte(i))
		for len(chunk) > 0 {
			n, err := c.Send(chunk)
			if err == ErrWouldBlock {
				tn.run(2 * sim.Millisecond)
				tn.recvN(s, s.ReadableBytes())
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			chunk = chunk[n:]
		}
		tn.run(sim.Duration(rng.Intn(int(sim.Millisecond))))

		thaw := freeze(tn, 0, 1)
		stC, err := c.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		stS, err := s.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		thaw()
		sndNxt := stC.SndUna
		for _, sg := range stC.SendSegments {
			sndNxt += uint32(len(sg.Data))
		}
		sndNxt += uint32(len(stC.SendPending))
		if !seqLE(stC.SndUna, stS.RcvNxt) || !seqLE(stS.RcvNxt, sndNxt) {
			t.Fatalf("iteration %d: invariant violated una=%d rcv=%d nxt=%d",
				i, stC.SndUna, stS.RcvNxt, sndNxt)
		}
	}
}
