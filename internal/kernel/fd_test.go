package kernel

import (
	"errors"
	"io"
	"testing"

	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// scriptProg runs a user-supplied closure each step — compact driver for
// syscall-surface tests.
type scriptProg struct {
	fn func(ctx *ProcContext) StepResult
}

func (p *scriptProg) Step(ctx *ProcContext) StepResult { return p.fn(ctx) }

func TestPipeEOFAndBrokenPipe(t *testing.T) {
	r := newTestRig(t, 1)
	var phase int
	var rfd, wfd int
	var gotEOF, gotBroken bool
	p := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		switch phase {
		case 0:
			rfd, wfd, _ = ctx.Pipe()
			ctx.Send(wfd, []byte("tail"))
			ctx.CloseFD(wfd) // close write end with data still buffered
			phase = 1
			return Continue(0)
		case 1:
			buf := make([]byte, 16)
			n, err := ctx.Recv(rfd, buf, false)
			if err == nil && n == 4 {
				phase = 2
				return Continue(0)
			}
			return Exit(0, 1)
		case 2:
			// Buffered data gone; now EOF.
			if _, err := ctx.Recv(rfd, make([]byte, 4), false); err == io.EOF {
				gotEOF = true
			}
			// Fresh pipe: close the read end, then write -> broken pipe.
			r2, w2, _ := ctx.Pipe()
			ctx.CloseFD(r2)
			if _, err := ctx.Send(w2, []byte("x")); err != nil && err != ErrWouldBlock {
				gotBroken = true
			}
			return Exit(0, 0)
		}
		return Exit(0, 9)
	}}
	proc := r.kernels[0].Spawn("pipes", p, 0)
	r.run(50 * sim.Millisecond)
	if proc.State() != StateExited || proc.ExitCode() != 0 {
		t.Fatalf("proc state=%v code=%d", proc.State(), proc.ExitCode())
	}
	if !gotEOF {
		t.Fatal("no EOF after writer close")
	}
	if !gotBroken {
		t.Fatal("no broken-pipe error after reader close")
	}
}

func TestWaitChildReapsInOrder(t *testing.T) {
	r := newTestRig(t, 1)
	var reaped []ChildExit
	var phase int
	p := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		switch phase {
		case 0:
			ctx.Spawn("c1", &counterProg{Target: 1})
			ctx.Spawn("c2", &counterProg{Target: 3, BurstCPU: sim.Millisecond})
			phase = 1
			return Continue(0)
		default:
			z, err := ctx.WaitChild()
			if err == ErrWouldBlock {
				return WaitForChild(0)
			}
			reaped = append(reaped, z)
			if len(reaped) == 2 {
				return Exit(0, 0)
			}
			return Continue(0)
		}
	}}
	proc := r.kernels[0].Spawn("parent", p, 0)
	r.run(sim.Second)
	if proc.State() != StateExited || len(reaped) != 2 {
		t.Fatalf("state=%v reaped=%v", proc.State(), reaped)
	}
	// The instant child (c1) exits before the 3ms child (c2).
	if reaped[0].PID >= reaped[1].PID && reaped[0].Code != 0 {
		t.Fatalf("reap order/codes: %v", reaped)
	}
}

func TestHWAddrSyscall(t *testing.T) {
	r := newTestRig(t, 1)
	var got string
	p := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		mac, err := ctx.HWAddr("eth0")
		if err != nil {
			return Exit(0, 1)
		}
		got = mac.String()
		return Exit(0, 0)
	}}
	r.kernels[0].Spawn("hw", p, 0)
	r.run(10 * sim.Millisecond)
	if got != "02:00:00:00:00:01" {
		t.Fatalf("HWAddr = %q", got)
	}
}

func TestUDPSyscallSurface(t *testing.T) {
	r := newTestRig(t, 2)
	var serverGot []byte
	server := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		if serverGot == nil {
			if _, err := ctx.OpenUDP(tcpip.AddrPort{Port: 500}, false); err != nil {
				return Exit(0, 1)
			}
			serverGot = []byte{}
			return Continue(0)
		}
		m, err := ctx.RecvFrom(3)
		if err == ErrWouldBlock {
			return BlockOnRead(0, 3)
		}
		if err != nil {
			return Exit(0, 1)
		}
		serverGot = m.Data
		ctx.SendTo(3, m.From, []byte("pong"))
		return Continue(0)
	}}
	r.kernels[1].Spawn("udpd", server, 0)
	r.run(5 * sim.Millisecond)

	var clientGot []byte
	phase := 0
	client := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		switch phase {
		case 0:
			if _, err := ctx.OpenUDP(tcpip.AddrPort{Port: 0}, false); err != nil {
				return Exit(0, 1)
			}
			ctx.SendTo(3, tcpip.AddrPort{Addr: nodeAddr(1), Port: 500}, []byte("ping"))
			phase = 1
			return Continue(0)
		default:
			buf := make([]byte, 16)
			n, err := ctx.Recv(3, buf, false)
			if err == ErrWouldBlock {
				return BlockOnRead(0, 3)
			}
			if err != nil {
				return Exit(0, 1)
			}
			clientGot = buf[:n]
			return Exit(0, 0)
		}
	}}
	cp := r.kernels[0].Spawn("udpc", client, 0)
	r.run(100 * sim.Millisecond)
	if cp.State() != StateExited || cp.ExitCode() != 0 {
		t.Fatalf("client state=%v code=%d", cp.State(), cp.ExitCode())
	}
	if string(serverGot) != "ping" || string(clientGot) != "pong" {
		t.Fatalf("exchange: %q / %q", serverGot, clientGot)
	}
}

func TestBadFDErrors(t *testing.T) {
	r := newTestRig(t, 1)
	var errs []error
	p := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		_, e1 := ctx.Recv(42, make([]byte, 1), false)
		_, e2 := ctx.Send(42, []byte{1})
		e3 := ctx.CloseFD(42)
		_, e4 := ctx.Accept(42)
		e5 := ctx.SetNoDelay(42, true)
		errs = append(errs, e1, e2, e3, e4, e5)
		return Exit(0, 0)
	}}
	r.kernels[0].Spawn("bad", p, 0)
	r.run(10 * sim.Millisecond)
	for i, err := range errs {
		if !errors.Is(err, ErrBadFD) {
			t.Fatalf("err %d = %v, want ErrBadFD", i, err)
		}
	}
}

func TestFDKindMismatch(t *testing.T) {
	r := newTestRig(t, 1)
	var got error
	p := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		fd, err := ctx.Listen(tcpip.AddrPort{Port: 80}, 4)
		if err != nil {
			return Exit(0, 1)
		}
		// SetNoDelay on a listener is a kind mismatch.
		got = ctx.SetNoDelay(fd, true)
		return Exit(0, 0)
	}}
	r.kernels[0].Spawn("kind", p, 0)
	r.run(10 * sim.Millisecond)
	if !errors.Is(got, ErrBadFD) {
		t.Fatalf("kind mismatch err = %v", got)
	}
}

func TestSpawnInheritsListener(t *testing.T) {
	// A server parent opens a listener and hands it to a worker child —
	// the accept loop continues in the child (descriptor inheritance).
	r := newTestRig(t, 2)
	var accepted bool
	childFD := -1
	child := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		if childFD < 0 {
			return Sleep(0, sim.Millisecond)
		}
		_, err := ctx.Accept(childFD)
		if err == ErrWouldBlock {
			return BlockOnRead(0, childFD)
		}
		if err != nil {
			return Exit(0, 1)
		}
		accepted = true
		return Exit(0, 0)
	}}
	parentPhase := 0
	parent := &scriptProg{fn: func(ctx *ProcContext) StepResult {
		if parentPhase == 0 {
			lfd, err := ctx.Listen(tcpip.AddrPort{Port: 81}, 4)
			if err != nil {
				return Exit(0, 1)
			}
			_, fds, err := ctx.Spawn("worker", child, lfd)
			if err != nil || len(fds) != 1 {
				return Exit(0, 1)
			}
			childFD = fds[0]
			parentPhase = 1
			return Continue(0)
		}
		return Sleep(0, sim.Second)
	}}
	r.kernels[1].Spawn("server", parent, 0)
	r.run(10 * sim.Millisecond)
	// Outside client connects; the child must accept it.
	conn, err := r.kernels[0].Stack().DialTCP(tcpip.AddrPort{}, tcpip.AddrPort{Addr: nodeAddr(1), Port: 81})
	if err != nil {
		t.Fatal(err)
	}
	r.run(100 * sim.Millisecond)
	if !accepted {
		t.Fatal("inherited listener never accepted")
	}
	// The worker exits right after accepting, so the client sees either
	// an established connection or an orderly half-close — never a reset.
	if st := conn.State(); st != tcpip.StateEstablished && st != tcpip.StateCloseWait {
		t.Fatalf("client state = %v", st)
	}
}

func TestSchedulerSkipsStoppedInQueue(t *testing.T) {
	// SIGSTOP delivered while the process sits in the ready queue must
	// prevent its next step.
	r := newTestRig(t, 1)
	prog := &counterProg{Target: 1 << 30, BurstCPU: sim.Millisecond}
	p := r.kernels[0].Spawn("busy", prog, 0)
	// Stop before any event has run.
	r.kernels[0].Signal(p.PID(), SIGSTOP)
	r.run(100 * sim.Millisecond)
	if prog.Count != 0 {
		t.Fatalf("stopped-at-spawn process ran %d steps", prog.Count)
	}
	r.kernels[0].Signal(p.PID(), SIGCONT)
	r.run(10 * sim.Millisecond)
	if prog.Count == 0 {
		t.Fatal("process never resumed")
	}
}

// TestWrongEndAndWrongKindDescriptors: I/O on a descriptor that cannot
// carry it — a listener read or written, a UDP socket written (SendTo is
// its write), a pipe's read end written or its write end read — fails
// with ErrBadFD, and blocking on a pipe end parks the process only until
// that end is ready for the direction it waits in.
func TestWrongEndAndWrongKindDescriptors(t *testing.T) {
	listener := func(ctx *ProcContext) int { fd, _ := ctx.Listen(tcpip.AddrPort{Port: 90}, 4); return fd }
	udp := func(ctx *ProcContext) int { fd, _ := ctx.OpenUDP(tcpip.AddrPort{Port: 91}, false); return fd }
	readEnd := func(ctx *ProcContext) int { r, _, _ := ctx.Pipe(); return r }
	writeEnd := func(ctx *ProcContext) int { _, w, _ := ctx.Pipe(); return w }
	fullReadEnd := func(ctx *ProcContext) int {
		r, w, _ := ctx.Pipe()
		ctx.Send(w, []byte("x"))
		return r
	}
	recv := func(ctx *ProcContext, fd int) error { _, err := ctx.Recv(fd, make([]byte, 4), false); return err }
	send := func(ctx *ProcContext, fd int) error { _, err := ctx.Send(fd, []byte("x")); return err }
	for _, tc := range []struct {
		name string
		open func(*ProcContext) int
		io   func(*ProcContext, int) error // wants ErrBadFD; nil for a blocking row
		// A blocking row parks on the descriptor in the write direction or
		// not, and wants the process runnable again at once, or parked.
		write, ready bool
	}{
		{name: "listener read", open: listener, io: recv},
		{name: "listener written", open: listener, io: send},
		{name: "udp written", open: udp, io: send},
		{name: "pipe read end written", open: readEnd, io: send},
		{name: "pipe write end read", open: writeEnd, io: recv},
		{name: "pipe read end with data", open: fullReadEnd, ready: true},
		{name: "empty pipe read end", open: readEnd, ready: false},
		{name: "pipe read end waited on for writing", open: fullReadEnd, write: true, ready: false},
		{name: "pipe write end with room", open: writeEnd, write: true, ready: true},
		{name: "pipe write end waited on for reading", open: writeEnd, ready: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRig(t, 1)
			var ioErr error
			resumed := false
			phase := 0
			proc := r.kernels[0].Spawn("fds", &scriptProg{fn: func(ctx *ProcContext) StepResult {
				if phase > 0 {
					resumed = true
					return Exit(0, 0)
				}
				phase++
				fd := tc.open(ctx)
				if tc.io != nil {
					ioErr = tc.io(ctx, fd)
					return Exit(0, 0)
				}
				if tc.write {
					return BlockOnWrite(0, fd)
				}
				return BlockOnRead(0, fd)
			}}, 0)
			r.run(10 * sim.Millisecond)
			switch {
			case tc.io != nil:
				if !errors.Is(ioErr, ErrBadFD) {
					t.Fatalf("error %v, want ErrBadFD", ioErr)
				}
			case resumed != tc.ready:
				t.Fatalf("resumed %v (state %v), want %v", resumed, proc.State(), tc.ready)
			}
		})
	}
}
