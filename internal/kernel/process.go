package kernel

import (
	"fmt"

	"cruz/internal/ether"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// ProcState is a process's scheduling state.
type ProcState int

// Process states.
const (
	StateReady ProcState = iota + 1
	StateRunning
	StateBlocked
	StateSleeping
	StateStopped
	StateExited
)

var procStateNames = map[ProcState]string{
	StateReady:    "READY",
	StateRunning:  "RUNNING",
	StateBlocked:  "BLOCKED",
	StateSleeping: "SLEEPING",
	StateStopped:  "STOPPED",
	StateExited:   "EXITED",
}

func (s ProcState) String() string {
	if n, ok := procStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Signal is a POSIX-style signal number.
type Signal int

// Signals used by the simulation.
const (
	SIGKILL Signal = 9
	SIGUSR1 Signal = 10
	SIGUSR2 Signal = 12
	SIGTERM Signal = 15
	SIGCONT Signal = 18
	SIGSTOP Signal = 19
)

func (s Signal) String() string {
	switch s {
	case SIGKILL:
		return "SIGKILL"
	case SIGUSR1:
		return "SIGUSR1"
	case SIGUSR2:
		return "SIGUSR2"
	case SIGTERM:
		return "SIGTERM"
	case SIGCONT:
		return "SIGCONT"
	case SIGSTOP:
		return "SIGSTOP"
	}
	return fmt.Sprintf("SIG(%d)", int(s))
}

// WaitKind says what a finished step is waiting for.
type WaitKind int

// Wait kinds.
const (
	// WaitNone re-queues the process immediately (it has more work).
	WaitNone WaitKind = iota
	// WaitFD parks the process until the file descriptor signals
	// readability (or writability if WaitWrite is set).
	WaitFD
	// WaitSleep parks the process for SleepFor of virtual time.
	WaitSleep
	// WaitSem parks the process until the semaphore signals.
	WaitSem
	// WaitChild parks the process until a child exits.
	WaitChild
	// WaitExit terminates the process with ExitCode.
	WaitExit
)

// StepResult tells the kernel what a program step consumed and what to do
// next.
type StepResult struct {
	// CPU is the user-mode compute time the step consumed (syscall costs
	// are added by the kernel automatically).
	CPU sim.Duration

	Wait      WaitKind
	FD        int          // for WaitFD
	WaitWrite bool         // for WaitFD: wait for writability
	SleepFor  sim.Duration // for WaitSleep
	SemID     int          // for WaitSem
	ExitCode  int          // for WaitExit
}

// Convenience constructors for StepResult.

// Continue re-queues the process after consuming cpu.
func Continue(cpu sim.Duration) StepResult { return StepResult{CPU: cpu} }

// BlockOnRead parks the process until fd is readable.
func BlockOnRead(cpu sim.Duration, fd int) StepResult {
	return StepResult{CPU: cpu, Wait: WaitFD, FD: fd}
}

// BlockOnWrite parks the process until fd is writable.
func BlockOnWrite(cpu sim.Duration, fd int) StepResult {
	return StepResult{CPU: cpu, Wait: WaitFD, FD: fd, WaitWrite: true}
}

// Sleep parks the process for d.
func Sleep(cpu, d sim.Duration) StepResult {
	return StepResult{CPU: cpu, Wait: WaitSleep, SleepFor: d}
}

// BlockOnSem parks the process on a semaphore.
func BlockOnSem(cpu sim.Duration, id int) StepResult {
	return StepResult{CPU: cpu, Wait: WaitSem, SemID: id}
}

// WaitForChild parks the process until a child exits.
func WaitForChild(cpu sim.Duration) StepResult {
	return StepResult{CPU: cpu, Wait: WaitChild}
}

// Exit terminates the process.
func Exit(cpu sim.Duration, code int) StepResult {
	return StepResult{CPU: cpu, Wait: WaitExit, ExitCode: code}
}

// Program is the user code of a simulated process: a deterministic state
// machine. All mutable state reachable from the Program value must be
// gob-serializable (register concrete types with gob.Register); the
// checkpointer encodes it as the process's "CPU state".
//
// Step is called each time the process is scheduled. It may issue
// syscalls through ctx. Blocking syscalls return ErrWouldBlock; the
// program then returns the matching wait disposition and retries on the
// next step. Spurious wakeups are allowed: a program must tolerate being
// re-stepped with its awaited condition still false.
type Program interface {
	Step(ctx *ProcContext) StepResult
}

// Interposer hooks the syscall layer; the Zap layer implements it to
// virtualize a pod's view of the system (paper §4.2).
type Interposer interface {
	// RewriteBind maps the address a socket asks to bind or listen on to
	// the address it must actually use (the pod VIF's address).
	RewriteBind(requested tcpip.AddrPort) tcpip.AddrPort
	// RewriteConnectLocal chooses the local address for an outgoing
	// connection (the implicit bind performed by connect).
	RewriteConnectLocal() tcpip.Addr
	// HWAddr is the SIOCGIFHWADDR interception: the MAC address the
	// process should believe an interface has.
	HWAddr(iface string, real ether.MAC) ether.MAC
	// VirtualPID maps a physical pid to the identifier the process
	// should see (its pod-private virtual pid).
	VirtualPID(real int) int
	// TranslatePID maps a virtual pid (as used by the process in kill
	// and friends) back to the physical pid.
	TranslatePID(virtual int) (int, bool)
	// SyscallOverhead is the extra CPU the interposition layer charges
	// per syscall.
	SyscallOverhead() sim.Duration
	// ChildSpawned is invoked when an interposed process forks a child,
	// so the virtualization layer can adopt it into the namespace.
	ChildSpawned(child *Process)
}

// ChildExit records a reaped child.
type ChildExit struct {
	PID  int
	Code int
}

// Process is one simulated process.
type Process struct {
	kernel *Kernel
	pid    int
	parent int
	name   string
	prog   Program
	mem    *mem.AddressSpace
	fds    map[int]*FD
	nextFD int

	state         ProcState
	queued        bool
	stopRequested bool
	killed        bool
	exitCode      int
	resumeWait    StepResult
	// stepRes is the disposition of the step in flight, parked here
	// until finishFn runs when its CPU time has elapsed (a process runs
	// at most one step at a time). finishFn and wakeFn, the completion
	// and sleep-wake callbacks, are bound once at Spawn.
	stepRes          StepResult
	finishFn, wakeFn func()
	sleepEv          *sim.Event
	waitFD           int
	waitingChild     bool
	zombies          []ChildExit
	signals          []Signal

	cpuTime sim.Duration
	// cowFaults accumulates write-protection faults taken during the
	// current program step; runStep folds them into the step's CPU cost
	// and resets the counter.
	cowFaults int

	interposer Interposer
	onStopped  func()
	onExit     func(code int)

	ctx ProcContext
}

// PID returns the kernel's (physical) process id.
func (p *Process) PID() int { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// State returns the scheduling state.
func (p *Process) State() ProcState { return p.state }

// ExitCode returns the exit code once the process has exited.
func (p *Process) ExitCode() int { return p.exitCode }

// CPUTime returns accumulated virtual CPU time.
func (p *Process) CPUTime() sim.Duration { return p.cpuTime }

// Program returns the process's program value (used by the checkpointer).
func (p *Process) Program() Program { return p.prog }

// Mem returns the process's address space.
func (p *Process) Mem() *mem.AddressSpace { return p.mem }

// Parent returns the parent pid.
func (p *Process) Parent() int { return p.parent }

// SetInterposer installs the Zap syscall-interposition hooks.
func (p *Process) SetInterposer(i Interposer) { p.interposer = i }

// SetOnStopped installs a callback fired when the process actually
// reaches the stopped state after SIGSTOP (pods use this to detect
// quiescence before checkpointing).
func (p *Process) SetOnStopped(fn func()) { p.onStopped = fn }

// SetOnExit installs a callback fired when the process exits.
func (p *Process) SetOnExit(fn func(code int)) { p.onExit = fn }

// RestoreSignals refills the pending-signal queue (restore path).
func (p *Process) RestoreSignals(sigs []Signal) {
	p.signals = append(p.signals, sigs...)
}

// RestoreCPUTime seeds the accumulated CPU time (restore path), keeping
// accounting continuous across checkpoint-restart.
func (p *Process) RestoreCPUTime(d sim.Duration) { p.cpuTime = d }

// PendingSignals returns queued (not yet consumed) signals.
func (p *Process) PendingSignals() []Signal {
	out := make([]Signal, len(p.signals))
	copy(out, p.signals)
	return out
}

// deliverSignal applies kernel-handled signals and queues the rest.
func (p *Process) deliverSignal(sig Signal) {
	switch sig {
	case SIGKILL:
		if p.state == StateRunning {
			p.killed = true // takes effect when the step's time elapses
			return
		}
		p.kernel.exitProcess(p, 137)
	case SIGSTOP:
		switch p.state {
		case StateRunning:
			p.stopRequested = true
		case StateReady, StateBlocked, StateSleeping:
			if p.sleepEv != nil {
				p.kernel.engine.Cancel(p.sleepEv)
				p.sleepEv = nil
			}
			p.state = StateStopped
			p.resumeWait = StepResult{Wait: WaitNone}
			if p.onStopped != nil {
				p.onStopped()
			}
		}
	case SIGCONT:
		if p.state == StateStopped {
			// Resume with a retry: programs tolerate spurious wakeups,
			// so we simply make the process runnable again.
			p.state = StateReady
			p.kernel.enqueue(p)
		}
	case SIGTERM:
		// Default disposition: terminate (no user handlers in the
		// simulation; programs that want graceful shutdown poll
		// TakeSignal for SIGUSR1/2 instead).
		p.deliverSignal(SIGKILL)
	default:
		p.signals = append(p.signals, sig)
		// A queued signal wakes a blocked process so it can notice.
		if p.state == StateBlocked || p.state == StateSleeping {
			p.kernel.wake(p)
		}
	}
}

// Stopped reports whether the process is currently stopped.
func (p *Process) Stopped() bool { return p.state == StateStopped }

// hasZombieChild reports whether an exited child awaits reaping.
func (p *Process) hasZombieChild() bool { return len(p.zombies) > 0 }

// ProcContext is the syscall interface handed to Program.Step. It is
// owned by the kernel; programs must not retain it across steps.
type ProcContext struct {
	proc     *Process
	syscalls int
}

func (c *ProcContext) reset() {
	c.syscalls = 0
}

func (c *ProcContext) charge() { c.syscalls++ }

// Now returns the current virtual time (a vDSO-style cheap read; not
// charged as a syscall).
func (c *ProcContext) Now() sim.Time { return c.proc.kernel.engine.Now() }

// PID returns the calling process's pid — virtualized by Zap when the
// process runs in a pod.
func (c *ProcContext) PID() int {
	c.charge()
	if ip := c.proc.interposer; ip != nil {
		return ip.VirtualPID(c.proc.pid)
	}
	return c.proc.pid
}

// Mem returns the process's address space. Access is direct (user-mode
// loads and stores are not syscalls).
func (c *ProcContext) Mem() *mem.AddressSpace { return c.proc.mem }

// Kill sends a signal to another process on this node. For pod processes
// the pid argument is a virtual pid, translated by the interposition
// layer; signalling outside the pod is refused (pod isolation).
func (c *ProcContext) Kill(pid int, sig Signal) error {
	c.charge()
	if ip := c.proc.interposer; ip != nil {
		real, ok := ip.TranslatePID(pid)
		if !ok {
			return fmt.Errorf("%w: pid %d", ErrNoProcess, pid)
		}
		pid = real
	}
	return c.proc.kernel.Signal(pid, sig)
}

// Spawn creates a child process running prog. Open descriptors listed in
// inherit are duplicated into the child (pipe ends, sockets), mirroring
// fork+exec descriptor inheritance; the returned slice gives the child's
// fd numbers in order. Pipe ends wake both holders; an inherited socket
// hands its wakeups to the child (the usual server-to-worker pattern).
func (c *ProcContext) Spawn(name string, prog Program, inherit ...int) (pid int, childFDs []int, err error) {
	c.charge()
	child := c.proc.kernel.Spawn(name, prog, c.proc.pid)
	if ip := c.proc.interposer; ip != nil {
		ip.ChildSpawned(child) // the pod adopts the child and interposes it
	}
	for _, fdn := range inherit {
		fd, ok := c.proc.fds[fdn]
		if !ok {
			return 0, nil, fmt.Errorf("%w: %d", ErrBadFD, fdn)
		}
		nfd := child.nextFD
		child.nextFD++
		child.fds[nfd] = &FD{file: fd.file, kind: fd.kind, refs: fd.refs}
		*fd.refs++
		switch v := fd.file.(type) {
		case *pipeReadFile:
			v.p.notifyReaders = append(v.p.notifyReaders, child.fdNotify(nfd))
		case *pipeWriteFile:
			v.p.notifyWriters = append(v.p.notifyWriters, child.fdNotify(nfd))
		case *connFile:
			v.c.SetNotify(child.fdNotify(nfd))
		case *listenerFile:
			v.l.SetNotify(child.fdNotify(nfd))
		case *udpFile:
			v.u.SetNotify(child.fdNotify(nfd))
		}
		childFDs = append(childFDs, nfd)
	}
	return child.pid, childFDs, nil
}

// WaitChild reaps one exited child, or returns ErrWouldBlock.
func (c *ProcContext) WaitChild() (ChildExit, error) {
	c.charge()
	if len(c.proc.zombies) == 0 {
		return ChildExit{}, ErrWouldBlock
	}
	z := c.proc.zombies[0]
	c.proc.zombies = c.proc.zombies[1:]
	return z, nil
}

// --- Socket syscalls -------------------------------------------------

func (c *ProcContext) stack() (*tcpip.Stack, error) {
	if c.proc.kernel.stack == nil {
		return nil, tcpip.ErrNoRoute
	}
	return c.proc.kernel.stack, nil
}

// Listen creates a listening TCP socket. The bind address is interposed
// for pod processes so it always lands on the pod's VIF (§4.2).
func (c *ProcContext) Listen(local tcpip.AddrPort, backlog int) (int, error) {
	c.charge()
	st, err := c.stack()
	if err != nil {
		return -1, err
	}
	if ip := c.proc.interposer; ip != nil {
		local = ip.RewriteBind(local)
	}
	l, err := st.ListenTCP(local, backlog)
	if err != nil {
		return -1, err
	}
	fd := c.proc.installFD(&listenerFile{l: l}, FDListener)
	l.SetNotify(c.proc.fdNotify(fd))
	return fd, nil
}

// Accept takes an established connection from a listening socket.
func (c *ProcContext) Accept(fd int) (int, error) {
	c.charge()
	f, err := c.proc.lookupFD(fd, FDListener)
	if err != nil {
		return -1, err
	}
	l := f.file.(*listenerFile).l
	conn, err := l.Accept()
	if err != nil {
		return -1, err
	}
	nfd := c.proc.installFD(&connFile{c: conn}, FDConn)
	conn.SetNotify(c.proc.fdNotify(nfd))
	return nfd, nil
}

// Connect starts an active TCP open. The implicit local bind is
// interposed for pod processes. The returned fd becomes writable when the
// connection establishes; ConnState/ConnErr report progress.
func (c *ProcContext) Connect(remote tcpip.AddrPort) (int, error) {
	c.charge()
	st, err := c.stack()
	if err != nil {
		return -1, err
	}
	local := tcpip.AddrPort{}
	if ip := c.proc.interposer; ip != nil {
		local.Addr = ip.RewriteConnectLocal()
	}
	conn, err := st.DialTCP(local, remote)
	if err != nil {
		return -1, err
	}
	fd := c.proc.installFD(&connFile{c: conn}, FDConn)
	conn.SetNotify(c.proc.fdNotify(fd))
	return fd, nil
}

// ConnEstablished reports whether the connection behind fd has completed
// its handshake.
func (c *ProcContext) ConnEstablished(fd int) (bool, error) {
	c.charge()
	f, err := c.proc.lookupFD(fd, FDConn)
	if err != nil {
		return false, err
	}
	conn := f.file.(*connFile).c
	if conn.Err() != nil {
		return false, conn.Err()
	}
	return conn.Established(), nil
}

// Send writes bytes to a connection or pipe.
func (c *ProcContext) Send(fd int, b []byte) (int, error) {
	c.charge()
	f, ok := c.proc.fds[fd]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return f.file.write(b)
}

// Recv reads bytes from a connection or pipe. peek leaves the data in
// the buffer (MSG_PEEK).
func (c *ProcContext) Recv(fd int, b []byte, peek bool) (int, error) {
	c.charge()
	f, ok := c.proc.fds[fd]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return f.file.read(b, peek)
}

// CloseFD closes a descriptor.
func (c *ProcContext) CloseFD(fd int) error {
	c.charge()
	return c.proc.closeFD(fd)
}

// SetNoDelay sets TCP_NODELAY on a connection fd.
func (c *ProcContext) SetNoDelay(fd int, v bool) error {
	c.charge()
	f, err := c.proc.lookupFD(fd, FDConn)
	if err != nil {
		return err
	}
	f.file.(*connFile).c.SetNoDelay(v)
	return nil
}

// LocalAddr returns the local endpoint of a socket fd.
func (c *ProcContext) LocalAddr(fd int) (tcpip.AddrPort, error) {
	c.charge()
	if f, ok := c.proc.fds[fd]; ok {
		switch v := f.file.(type) {
		case *connFile:
			return v.c.LocalAddr(), nil
		case *listenerFile:
			return v.l.LocalAddr(), nil
		case *udpFile:
			return v.u.LocalAddr(), nil
		}
	}
	return tcpip.AddrPort{}, fmt.Errorf("%w: %d", ErrBadFD, fd)
}

// OpenUDP creates a UDP socket; the bind address is interposed for pods.
func (c *ProcContext) OpenUDP(local tcpip.AddrPort, broadcast bool) (int, error) {
	c.charge()
	st, err := c.stack()
	if err != nil {
		return -1, err
	}
	if ip := c.proc.interposer; ip != nil {
		local = ip.RewriteBind(local)
	}
	u, err := st.OpenUDP(local)
	if err != nil {
		return -1, err
	}
	u.Broadcast = broadcast
	fd := c.proc.installFD(&udpFile{u: u}, FDUDP)
	u.SetNotify(c.proc.fdNotify(fd))
	return fd, nil
}

// SendTo transmits a datagram on a UDP fd.
func (c *ProcContext) SendTo(fd int, remote tcpip.AddrPort, data []byte) error {
	c.charge()
	f, err := c.proc.lookupFD(fd, FDUDP)
	if err != nil {
		return err
	}
	return f.file.(*udpFile).u.SendTo(remote, data)
}

// RecvFrom receives a datagram from a UDP fd.
func (c *ProcContext) RecvFrom(fd int) (tcpip.UDPMessage, error) {
	c.charge()
	f, err := c.proc.lookupFD(fd, FDUDP)
	if err != nil {
		return tcpip.UDPMessage{}, err
	}
	return f.file.(*udpFile).u.RecvFrom()
}

// HWAddr is the SIOCGIFHWADDR ioctl: the hardware address of a named
// interface. Zap interposes it to return the pod's fake MAC so DHCP
// leases survive migration (§4.2).
func (c *ProcContext) HWAddr(name string) (ether.MAC, error) {
	c.charge()
	st, err := c.stack()
	if err != nil {
		return ether.MAC{}, err
	}
	iface := st.InterfaceByName(name)
	if iface == nil {
		// Pod processes see only their VIF; fall back to the first
		// visible interface.
		ifaces := st.Interfaces()
		if len(ifaces) == 0 {
			return ether.MAC{}, tcpip.ErrUnknownIface
		}
		iface = ifaces[0]
	}
	real := iface.MAC
	if ip := c.proc.interposer; ip != nil {
		return ip.HWAddr(name, real), nil
	}
	return real, nil
}

// --- Pipes ------------------------------------------------------------

// Pipe creates a unidirectional pipe, returning (read fd, write fd).
func (c *ProcContext) Pipe() (int, int, error) {
	c.charge()
	p := newPipe(c.proc.kernel)
	rfd := c.proc.installFD(&pipeReadFile{p: p}, FDPipeRead)
	wfd := c.proc.installFD(&pipeWriteFile{p: p}, FDPipeWrite)
	p.notifyReaders = append(p.notifyReaders, c.proc.fdNotify(rfd))
	p.notifyWriters = append(p.notifyWriters, c.proc.fdNotify(wfd))
	return rfd, wfd, nil
}

// --- System-V IPC ----------------------------------------------------

// ShmGet creates (or finds, by key) a shared-memory segment.
func (c *ProcContext) ShmGet(key, size int) (int, error) {
	c.charge()
	return c.proc.kernel.shmGet(key, size)
}

// ShmWrite stores bytes into a shared segment.
func (c *ProcContext) ShmWrite(id int, off int, b []byte) error {
	c.charge()
	s, ok := c.proc.kernel.shms[id]
	if !ok {
		return fmt.Errorf("%w: shm %d", ErrNoIPC, id)
	}
	return s.Write(off, b)
}

// ShmRead loads bytes from a shared segment.
func (c *ProcContext) ShmRead(id int, off int, b []byte) error {
	c.charge()
	s, ok := c.proc.kernel.shms[id]
	if !ok {
		return fmt.Errorf("%w: shm %d", ErrNoIPC, id)
	}
	return s.Read(off, b)
}

// SemGet creates (or finds, by key) a semaphore with initial value val.
func (c *ProcContext) SemGet(key, val int) (int, error) {
	c.charge()
	return c.proc.kernel.semGet(key, val)
}

// SemOp adjusts a semaphore by delta. A decrement that would go negative
// returns ErrWouldBlock; the program should return BlockOnSem and retry.
func (c *ProcContext) SemOp(id, delta int) error {
	c.charge()
	return c.proc.kernel.semOp(id, delta)
}
