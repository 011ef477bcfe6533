package stream

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cruz"
	"cruz/internal/kernel"
	"cruz/internal/metrics"
)

func init() {
	cruz.RegisterProgram(&Sender{})
	cruz.RegisterProgram(&Receiver{})
}

// deploy places the receiver pod on node 0 and the sender pod on node 1.
func deploy(t *testing.T) (*cruz.Cluster, *cruz.Job, *Sender, *Receiver) {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rpod, err := cl.NewPod(0, "recv")
	if err != nil {
		t.Fatal(err)
	}
	spod, err := cl.NewPod(1, "send")
	if err != nil {
		t.Fatal(err)
	}
	recv := NewReceiver(0)
	if _, err := rpod.Spawn("receiver", recv); err != nil {
		t.Fatal(err)
	}
	send := NewSender(cruz.AddrPort{Addr: rpod.IP(), Port: DefaultPort})
	if _, err := spod.Spawn("sender", send); err != nil {
		t.Fatal(err)
	}
	job, err := cl.DefineJob("stream", "recv", "send")
	if err != nil {
		t.Fatal(err)
	}
	return cl, job, send, recv
}

func TestStreamsNearLineRate(t *testing.T) {
	cl, _, _, recv := deploy(t)
	cl.Run(500 * cruz.Millisecond)
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	// 500 ms at gigabit ≈ 59 MB payload ceiling; demand > 80% of it.
	gotMbps := float64(recv.Received) * 8 / 1e6 / 0.5
	if gotMbps < 750 || gotMbps > 1000 {
		t.Fatalf("throughput = %.0f Mb/s, want near line rate", gotMbps)
	}
}

func TestStreamSurvivesCheckpointWithFig6Shape(t *testing.T) {
	cl, job, _, recv := deploy(t)
	cl.Run(300 * cruz.Millisecond)

	// Sample the receive rate every millisecond over a 10 ms sliding
	// window, exactly like Fig. 6.
	meter := metrics.NewRateMeter(10 * cruz.Millisecond)
	var series metrics.Series
	series.Name = "receive rate (Mb/s)"
	var lastSeen uint64 = recv.Received
	resolve := func() *Receiver {
		return cl.Pod("recv").Process(1).Program().(*Receiver)
	}
	ticker := cl.Engine.NewTicker(cruz.Millisecond, func() {
		r := resolve()
		if r.Received >= lastSeen {
			meter.Record(cl.Engine.Now(), int(r.Received-lastSeen))
		}
		lastSeen = r.Received
		series.Add(cl.Engine.Now(), meter.RateMbps(cl.Engine.Now()))
	})
	defer ticker.Stop()

	ckptStart := cl.Engine.Now()
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(600 * cruz.Millisecond)
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}

	// Fig. 6 shape: the rate hits zero during the checkpoint, then
	// recovers to full rate after TCP retransmission.
	shifted := series.Shifted(ckptStart)
	var sawZero, recovered bool
	for _, p := range shifted.Points {
		if p.T < 0 {
			continue
		}
		if p.V == 0 {
			sawZero = true
		}
		if sawZero && p.T > cruz.Time(res.CycleLatency) && p.V > 700 {
			recovered = true
		}
	}
	if !sawZero {
		t.Fatal("rate never dropped to zero during checkpoint")
	}
	if !recovered {
		min, max := shifted.MinMax()
		t.Fatalf("rate never recovered after checkpoint (range %.0f..%.0f)", min, max)
	}
}

func TestBoundedStreamCompletes(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rpod, _ := cl.NewPod(0, "recv")
	spod, _ := cl.NewPod(1, "send")
	recv := NewReceiver(0)
	rpod.Spawn("receiver", recv)
	send := NewSender(cruz.AddrPort{Addr: rpod.IP(), Port: DefaultPort})
	send.TotalBytes = 1 << 20
	spod.Spawn("sender", send)
	if !cl.RunUntil(func() bool { return recv.Received >= 1<<20 }, 5*cruz.Second) {
		t.Fatalf("received %d of %d", recv.Received, 1<<20)
	}
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRestoredMidTransfer: a sender/receiver pair checkpointed,
// destroyed and restarted mid-stream carries on from the checkpointed
// position, and the restored receiver — whose buffers, like the
// sender's pattern, no image carries — verifies every byte it gets.
func TestStreamRestoredMidTransfer(t *testing.T) {
	cl, job, osend, orecv := deploy(t)
	cl.Run(200 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Run(100 * cruz.Millisecond)
	cl.Pod("recv").Destroy()
	cl.Pod("send").Destroy()
	if _, err := cl.Restart(job, 0); err != nil {
		t.Fatal(err)
	}
	recv := cl.Pod("recv").Process(1).Program().(*Receiver)
	send := cl.Pod("send").Process(1).Program().(*Sender)
	if recv == orecv || send == osend {
		t.Fatal("restart kept the original programs")
	}
	at := recv.Received
	cl.Run(300 * cruz.Millisecond)
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	if recv.Received < at+10<<20 {
		t.Fatalf("received %d bytes in 300 ms after the restore, want ≥ 10 MiB", recv.Received-at)
	}
}

// metered runs a program with before and after called around each of its
// steps, so a test sees what the steps themselves cost.
type metered struct {
	kernel.Program
	before, after func()
	steps         *int
}

func (m *metered) Step(ctx *kernel.ProcContext) kernel.StepResult {
	*m.steps++
	m.before()
	r := m.Program.Step(ctx)
	m.after()
	return r
}

// TestStreamStepAllocatesNothing: once the stream is flowing, a sender
// step and a receiver step — the send or receive, the byte stamps or
// checks, and the TCP segments they make — allocate nothing, whether the
// send is accepted or would block.
func TestStreamStepAllocatesNothing(t *testing.T) {
	var (
		ms             runtime.MemStats
		counting       bool
		start, mallocs uint64
		steps          int
	)
	before := func() {
		if counting {
			runtime.ReadMemStats(&ms)
			start = ms.Mallocs
		}
	}
	after := func() {
		if counting {
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - start
		}
	}
	cl, err := cruz.New(cruz.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rpod, err := cl.NewPod(0, "recv")
	if err != nil {
		t.Fatal(err)
	}
	spod, err := cl.NewPod(1, "send")
	if err != nil {
		t.Fatal(err)
	}
	recv := NewReceiver(0)
	send := NewSender(cruz.AddrPort{Addr: rpod.IP(), Port: DefaultPort})
	if _, err := rpod.Spawn("receiver", &metered{recv, before, after, &steps}); err != nil {
		t.Fatal(err)
	}
	if _, err := spod.Spawn("sender", &metered{send, before, after, &steps}); err != nil {
		t.Fatal(err)
	}
	cl.Run(300 * cruz.Millisecond)
	// A collection starting or still running inside a step can start the
	// runtime's own mark workers, whose goroutines count as allocations.
	// So can a restart of the world (ReadMemStats stops it twice a step)
	// that finds an idle P and starts an OS thread for it: with one P
	// there is none. And the runtime's background scavenger, pacing the
	// return of free pages to the OS, re-arms its sleep timer whenever it
	// gets the P, which can grow the P's timer heap: returning every free
	// page first leaves it nothing to pace, so it parks without a timer.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	debug.FreeOSMemory()
	at, from := recv.Received, steps
	counting = true
	cl.Run(20 * cruz.Millisecond)
	counting = false
	if send.Fault != "" || recv.Fault != "" {
		t.Fatalf("faults: %q %q", send.Fault, recv.Fault)
	}
	if recv.Received-at < 1<<20 {
		t.Fatalf("only %d bytes streamed while measuring", recv.Received-at)
	}
	t.Logf("%d allocations over %d steps streaming %d bytes", mallocs, steps-from, recv.Received-at)
	if mallocs != 0 {
		t.Errorf("%d allocations over %d warmed sender and receiver steps, want 0", mallocs, steps-from)
	}
}
