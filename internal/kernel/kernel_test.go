package kernel

import (
	"errors"
	"io"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// testRig is a one- or two-node fixture with kernels and a network.
type testRig struct {
	t       *testing.T
	engine  *sim.Engine
	sw      *ether.Switch
	kernels []*Kernel
}

func newTestRig(t *testing.T, nodes int) *testRig {
	t.Helper()
	r := &testRig{t: t, engine: sim.NewEngine(7)}
	r.sw = ether.NewSwitch(r.engine)
	for i := 0; i < nodes; i++ {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(r.engine, "eth0", mac)
		r.sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(r.engine, "node")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		r.kernels = append(r.kernels, New(r.engine, "node", st))
	}
	return r
}

func (r *testRig) run(d sim.Duration) {
	r.t.Helper()
	if err := r.engine.RunFor(d); err != nil {
		r.t.Fatalf("RunFor: %v", err)
	}
}

func nodeAddr(i int) tcpip.Addr { return tcpip.Addr{10, 0, 0, byte(i + 1)} }

// --- test programs ----------------------------------------------------

// counterProg counts to Target, spending BurstCPU per step.
type counterProg struct {
	Count, Target int
	BurstCPU      sim.Duration
}

func (p *counterProg) Step(ctx *ProcContext) StepResult {
	p.Count++
	if p.Count >= p.Target {
		return Exit(p.BurstCPU, 0)
	}
	return Continue(p.BurstCPU)
}

// sleeperProg sleeps N times for Interval each, recording wake times.
type sleeperProg struct {
	Remaining int
	Interval  sim.Duration
	Wakes     []sim.Time
}

func (p *sleeperProg) Step(ctx *ProcContext) StepResult {
	p.Wakes = append(p.Wakes, ctx.Now())
	p.Remaining--
	if p.Remaining <= 0 {
		return Exit(0, 0)
	}
	return Sleep(0, p.Interval)
}

// echoServerProg accepts one connection and echoes everything back.
type echoServerProg struct {
	Port   uint16
	phase  int
	lfd    int
	cfd    int
	buf    []byte
	Echoed int
}

func (p *echoServerProg) Step(ctx *ProcContext) StepResult {
	switch p.phase {
	case 0:
		fd, err := ctx.Listen(tcpip.AddrPort{Port: p.Port}, 4)
		if err != nil {
			return Exit(0, 1)
		}
		p.lfd = fd
		p.phase = 1
		return Continue(0)
	case 1:
		cfd, err := ctx.Accept(p.lfd)
		if err == ErrWouldBlock {
			return BlockOnRead(0, p.lfd)
		}
		if err != nil {
			return Exit(0, 1)
		}
		p.cfd = cfd
		p.phase = 2
		return Continue(0)
	case 2: // read
		buf := make([]byte, 4096)
		n, err := ctx.Recv(p.cfd, buf, false)
		if err == ErrWouldBlock {
			return BlockOnRead(0, p.cfd)
		}
		if err == io.EOF {
			ctx.CloseFD(p.cfd)
			return Exit(0, 0)
		}
		if err != nil {
			return Exit(0, 1)
		}
		p.buf = buf[:n]
		p.phase = 3
		return Continue(10 * sim.Microsecond)
	case 3: // write back
		n, err := ctx.Send(p.cfd, p.buf)
		if err == ErrWouldBlock {
			return BlockOnWrite(0, p.cfd)
		}
		if err != nil {
			return Exit(0, 1)
		}
		p.Echoed += n
		p.buf = p.buf[n:]
		if len(p.buf) == 0 {
			p.phase = 2
		}
		return Continue(0)
	}
	return Exit(0, 1)
}

// echoClientProg connects, sends Payload, reads the echo, exits 0 on match.
type echoClientProg struct {
	Server  tcpip.AddrPort
	Payload []byte
	phase   int
	fd      int
	sent    int
	got     []byte
}

func (p *echoClientProg) Step(ctx *ProcContext) StepResult {
	switch p.phase {
	case 0:
		fd, err := ctx.Connect(p.Server)
		if err != nil {
			return Exit(0, 1)
		}
		p.fd = fd
		p.phase = 1
		return Continue(0)
	case 1:
		ok, err := ctx.ConnEstablished(p.fd)
		if err != nil {
			return Exit(0, 1)
		}
		if !ok {
			return Sleep(0, sim.Millisecond)
		}
		p.phase = 2
		return Continue(0)
	case 2: // send
		n, err := ctx.Send(p.fd, p.Payload[p.sent:])
		if err == ErrWouldBlock {
			return BlockOnWrite(0, p.fd)
		}
		if err != nil {
			return Exit(0, 1)
		}
		p.sent += n
		if p.sent == len(p.Payload) {
			p.phase = 3
		}
		return Continue(0)
	case 3: // receive echo
		buf := make([]byte, 4096)
		n, err := ctx.Recv(p.fd, buf, false)
		if err == ErrWouldBlock {
			return BlockOnRead(0, p.fd)
		}
		if err != nil {
			return Exit(0, 1)
		}
		p.got = append(p.got, buf[:n]...)
		if len(p.got) >= len(p.Payload) {
			for i := range p.Payload {
				if p.got[i] != p.Payload[i] {
					return Exit(0, 2)
				}
			}
			ctx.CloseFD(p.fd)
			return Exit(0, 0)
		}
		return Continue(0)
	}
	return Exit(0, 1)
}

// --- tests --------------------------------------------------------------

func TestProcessRunsAndExits(t *testing.T) {
	r := newTestRig(t, 1)
	p := r.kernels[0].Spawn("counter", &counterProg{Target: 10, BurstCPU: sim.Millisecond}, 0)
	r.run(sim.Second)
	if p.State() != StateExited {
		t.Fatalf("state = %v, want EXITED", p.State())
	}
	if p.CPUTime() != 10*sim.Millisecond {
		t.Fatalf("CPUTime = %v, want 10ms", p.CPUTime())
	}
	if r.kernels[0].Process(p.PID()) != nil {
		t.Fatal("exited process still in table")
	}
}

func TestCPUContention(t *testing.T) {
	// 4 CPU-bound processes on 2 CPUs: wall time = 2x single-process.
	r := newTestRig(t, 1)
	var procs []*Process
	for i := 0; i < 4; i++ {
		procs = append(procs, r.kernels[0].Spawn("busy", &counterProg{Target: 100, BurstCPU: sim.Millisecond}, 0))
	}
	start := r.engine.Now()
	r.run(10 * sim.Second)
	for _, p := range procs {
		if p.State() != StateExited {
			t.Fatalf("process not finished")
		}
	}
	// 4 procs x 100ms on 2 CPUs ≈ 200ms of wall time.
	elapsed := r.kernels[0].Stats.ContextTime
	if elapsed != 400*sim.Millisecond {
		t.Fatalf("total CPU = %v, want 400ms", elapsed)
	}
	_ = start
}

func TestSleepWakesOnTime(t *testing.T) {
	r := newTestRig(t, 1)
	prog := &sleeperProg{Remaining: 3, Interval: 50 * sim.Millisecond}
	r.kernels[0].Spawn("sleeper", prog, 0)
	r.run(sim.Second)
	if len(prog.Wakes) != 3 {
		t.Fatalf("wakes = %d, want 3", len(prog.Wakes))
	}
	gap := prog.Wakes[1].Sub(prog.Wakes[0])
	if gap < 50*sim.Millisecond || gap > 51*sim.Millisecond {
		t.Fatalf("sleep gap = %v, want ~50ms", gap)
	}
}

func TestEchoOverNetwork(t *testing.T) {
	r := newTestRig(t, 2)
	server := &echoServerProg{Port: 7}
	r.kernels[1].Spawn("echod", server, 0)
	r.run(10 * sim.Millisecond)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	client := &echoClientProg{Server: tcpip.AddrPort{Addr: nodeAddr(1), Port: 7}, Payload: payload}
	cp := r.kernels[0].Spawn("client", client, 0)
	r.run(5 * sim.Second)
	if cp.State() != StateExited || cp.ExitCode() != 0 {
		t.Fatalf("client state=%v code=%d phase=%d got=%d", cp.State(), cp.ExitCode(), client.phase, len(client.got))
	}
	if server.Echoed != len(payload) {
		t.Fatalf("server echoed %d, want %d", server.Echoed, len(payload))
	}
}

func TestSIGSTOPFreezesAndSIGCONTResumes(t *testing.T) {
	r := newTestRig(t, 1)
	prog := &counterProg{Target: 1 << 30, BurstCPU: sim.Millisecond}
	p := r.kernels[0].Spawn("busy", prog, 0)
	r.run(100 * sim.Millisecond)
	if err := r.kernels[0].Signal(p.PID(), SIGSTOP); err != nil {
		t.Fatal(err)
	}
	r.run(10 * sim.Millisecond) // let the in-flight step finish
	if !p.Stopped() {
		t.Fatalf("state = %v, want STOPPED", p.State())
	}
	frozen := prog.Count
	r.run(sim.Second)
	if prog.Count != frozen {
		t.Fatalf("stopped process kept running: %d -> %d", frozen, prog.Count)
	}
	r.kernels[0].Signal(p.PID(), SIGCONT)
	r.run(100 * sim.Millisecond)
	if prog.Count <= frozen {
		t.Fatal("SIGCONT did not resume execution")
	}
}

func TestOnStoppedCallbackFiresAtQuiescence(t *testing.T) {
	r := newTestRig(t, 1)
	p := r.kernels[0].Spawn("busy", &counterProg{Target: 1 << 30, BurstCPU: sim.Millisecond}, 0)
	var stoppedAt sim.Time
	p.SetOnStopped(func() { stoppedAt = r.engine.Now() })
	r.run(10 * sim.Millisecond)
	r.kernels[0].Signal(p.PID(), SIGSTOP)
	r.run(100 * sim.Millisecond)
	if stoppedAt == 0 {
		t.Fatal("onStopped never fired")
	}
}

func TestSIGKILL(t *testing.T) {
	r := newTestRig(t, 1)
	p := r.kernels[0].Spawn("victim", &counterProg{Target: 1 << 30, BurstCPU: sim.Millisecond}, 0)
	r.run(10 * sim.Millisecond)
	r.kernels[0].Signal(p.PID(), SIGKILL)
	r.run(10 * sim.Millisecond)
	if p.State() != StateExited || p.ExitCode() != 137 {
		t.Fatalf("state=%v code=%d", p.State(), p.ExitCode())
	}
	if err := r.kernels[0].Signal(p.PID(), SIGKILL); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("signal to dead pid = %v", err)
	}
}

func TestStopWhileBlockedThenCont(t *testing.T) {
	// A process blocked on a socket read must stop immediately and, on
	// SIGCONT, re-block (spurious wakeup semantics).
	r := newTestRig(t, 2)
	server := &echoServerProg{Port: 7}
	sp := r.kernels[1].Spawn("echod", server, 0)
	r.run(50 * sim.Millisecond)
	if sp.State() != StateBlocked {
		t.Fatalf("server state = %v, want BLOCKED (accept)", sp.State())
	}
	r.kernels[1].Signal(sp.PID(), SIGSTOP)
	r.run(sim.Millisecond)
	if !sp.Stopped() {
		t.Fatalf("server state = %v, want STOPPED", sp.State())
	}
	r.kernels[1].Signal(sp.PID(), SIGCONT)
	r.run(50 * sim.Millisecond)
	if sp.State() != StateBlocked {
		t.Fatalf("server state after CONT = %v, want BLOCKED again", sp.State())
	}
	// And it still works.
	client := &echoClientProg{Server: tcpip.AddrPort{Addr: nodeAddr(1), Port: 7}, Payload: []byte("hi")}
	cp := r.kernels[0].Spawn("client", client, 0)
	r.run(5 * sim.Second)
	if cp.ExitCode() != 0 || cp.State() != StateExited {
		t.Fatalf("client failed after server stop/cont: state=%v code=%d", cp.State(), cp.ExitCode())
	}
}

func TestUserSignalWakesBlockedProcess(t *testing.T) {
	r := newTestRig(t, 2)
	server := &echoServerProg{Port: 7}
	sp := r.kernels[1].Spawn("echod", server, 0)
	r.run(50 * sim.Millisecond)
	r.kernels[1].Signal(sp.PID(), SIGUSR1)
	r.run(sim.Millisecond)
	// The process woke (retried accept, re-blocked) and holds the signal.
	if got := sp.PendingSignals(); len(got) != 1 || got[0] != SIGUSR1 {
		t.Fatalf("pending = %v", got)
	}
}

// napProg sleeps for no time at every step, forever.
type napProg struct{}

func (napProg) Step(*ProcContext) StepResult { return Sleep(0, 0) }

// TestStepCycleAllocatesNothing: with more runnable processes than CPUs
// the ready queue never drains, and every step passes through enqueue,
// dispatch and its completion event; one process sleeps at every step, so
// the sleep-wake event runs too. None of it allocates: the dispatch,
// completion and wake callbacks are bound once (per kernel, per process),
// the step's result is parked on the process, and the ready queue reuses
// its array.
func TestStepCycleAllocatesNothing(t *testing.T) {
	r := newTestRig(t, 1)
	k := r.kernels[0]
	for i := 0; i < 2*numCPUs+1; i++ {
		k.Spawn("spin", &counterProg{Target: 1 << 30}, 0)
	}
	k.Spawn("nap", napProg{}, 0)
	cycle := func() {
		for i := 0; i < 1000; i++ {
			r.engine.Step()
		}
	}
	cycle() // grow the queue and the engine's event pool
	const runs = 10
	before := k.Stats.StepsRun
	avg := testing.AllocsPerRun(runs, cycle)
	steps := float64(k.Stats.StepsRun-before) / (runs + 1) // AllocsPerRun warms up once
	if steps < 300 {
		t.Fatalf("%.0f steps per run, want at least 300", steps)
	}
	if avg != 0 {
		t.Errorf("%.0f allocations over %.0f steps, want none", avg, steps)
	}
}

// BenchmarkStepCycle measures one program step through the scheduler —
// enqueue, the dispatch event, the step, its completion event — with more
// runnable processes than CPUs and one process napping at every step. The
// allocs/op figure is TestStepCycleAllocatesNothing's floor.
func BenchmarkStepCycle(b *testing.B) {
	e := sim.NewEngine(7)
	k := New(e, "node", nil)
	for i := 0; i < 2*numCPUs+1; i++ {
		k.Spawn("spin", &counterProg{Target: 1 << 62}, 0)
	}
	k.Spawn("nap", napProg{}, 0)
	for k.Stats.StepsRun < 1000 {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for target := k.Stats.StepsRun + uint64(b.N); k.Stats.StepsRun < target; {
		e.Step()
	}
}
