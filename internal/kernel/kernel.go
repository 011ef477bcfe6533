// Package kernel simulates a node's operating system: a process table,
// a scheduler over virtual CPUs, signals, file descriptors, pipes,
// System-V shared memory and semaphores, and the socket syscall layer
// bridging to the tcpip stack.
//
// Processes are "programs": deterministic state machines whose mutable
// state is gob-serializable. That explicit state is the simulation's
// stand-in for CPU registers and stack, and it is what makes
// checkpoint-restart application-transparent here: the checkpointer
// serializes the program value, the address space, and the kernel
// resources without the program's cooperation.
//
// Blocking is retry-based: a syscall that cannot complete returns
// ErrWouldBlock, the program's Step returns a wait disposition, and the
// kernel re-runs the step when the awaited resource signals (spurious
// wakeups are allowed and harmless). This is exactly the discipline that
// lets a restored process simply resume stepping after restart.
package kernel

import (
	"errors"
	"fmt"
	"sort"

	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Errors returned by kernel operations.
var (
	// ErrWouldBlock mirrors tcpip.ErrWouldBlock for kernel resources.
	ErrWouldBlock = tcpip.ErrWouldBlock
	ErrBadFD      = errors.New("kernel: bad file descriptor")
	ErrNoProcess  = errors.New("kernel: no such process")
	ErrNoIPC      = errors.New("kernel: no such IPC object")
	ErrStopped    = errors.New("kernel: process is stopped")
)

// A node's hardware and kernel costs, calibrated to the paper's testbed
// (DESIGN §5).
const (
	// numCPUs is the processor count: the testbed nodes have two 1 GHz
	// Pentium IIIs.
	numCPUs = 2
	// syscallCost is the base CPU cost charged per syscall.
	syscallCost = 1 * sim.Microsecond
	// DiskWriteBPS and diskReadBPS are the local disk's sequential
	// bandwidths in bytes per second.
	DiskWriteBPS = 110 << 20
	diskReadBPS  = 150 << 20
	// DiskLatency is the per-operation positioning latency.
	DiskLatency = 4 * sim.Millisecond
	// cowFaultCost is the CPU cost charged to a process for each
	// write-protection fault it takes writing to a page a live capture
	// protects — the runtime overhead of checkpointing concurrently with
	// execution (§5.2). It models the fault plus a page copy.
	cowFaultCost = 2 * sim.Microsecond
)

// Kernel is one node's operating system instance.
type Kernel struct {
	engine *sim.Engine
	name   string
	stack  *tcpip.Stack
	disk   *Disk
	tr     *trace.Tracer

	procs   map[int]*Process
	nextPID int

	busyCPUs int
	// readyQ holds the runnable processes, oldest first.
	readyQ sim.Queue[*Process]
	// dispatchFn is k.dispatch bound once: a method value allocates a
	// closure each time it is taken, and enqueue schedules one per wakeup.
	dispatchFn func()

	shms    map[int]*ShmSegment
	sems    map[int]*Semaphore
	nextIPC int

	// Stats counts kernel activity.
	Stats KernelStats
}

// KernelStats counts kernel-level events.
type KernelStats struct {
	StepsRun    uint64
	Syscalls    uint64
	ContextTime sim.Duration // total CPU time consumed by all processes
	// CowFaults counts write-protection faults taken by processes
	// writing to pages an in-progress live capture protects.
	CowFaults uint64
}

// New creates a kernel for a node. The stack may be nil for pure-compute
// nodes (tests); socket syscalls then fail with ErrNoRoute.
func New(engine *sim.Engine, name string, stack *tcpip.Stack) *Kernel {
	k := &Kernel{
		engine:  engine,
		name:    name,
		stack:   stack,
		tr:      trace.FromEngine(engine),
		procs:   make(map[int]*Process),
		nextPID: 1,
		shms:    make(map[int]*ShmSegment),
		sems:    make(map[int]*Semaphore),
	}
	k.dispatchFn = k.dispatch
	k.disk = &Disk{engine: engine, name: name}
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.engine }

// Name returns the node name.
func (k *Kernel) Name() string { return k.name }

// Stack returns the node's network stack (may be nil).
func (k *Kernel) Stack() *tcpip.Stack { return k.stack }

// Disk returns the node's disk.
func (k *Kernel) Disk() *Disk { return k.disk }

// Process returns the process with the given (physical) pid, or nil.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// Processes returns all live processes, in pid order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for pid := 1; pid < k.nextPID; pid++ {
		if p, ok := k.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Spawn creates a new process running prog and makes it runnable. The
// parent pid may be 0 for a detached (init-spawned) process.
func (k *Kernel) Spawn(name string, prog Program, parent int) *Process {
	p := &Process{
		kernel: k,
		pid:    k.nextPID,
		parent: parent,
		name:   name,
		prog:   prog,
		mem:    mem.NewAddressSpace(),
		fds:    make(map[int]*FD),
		nextFD: 3, // 0..2 reserved by convention
		state:  StateReady,
	}
	p.ctx.proc = p
	p.finishFn = func() { k.finishStep(p) }
	p.wakeFn = func() { k.wake(p) }
	// Each write-protection fault during a program step is charged to the
	// step's CPU cost in runStep; the hook only tallies.
	p.mem.SetFaultHook(func(uint64) {
		p.cowFaults++
		k.Stats.CowFaults++
	})
	k.nextPID++
	k.procs[p.pid] = p
	k.tr.Instant(k.name, "kernel", "spawn",
		trace.Str("proc", name), trace.Int("pid", int64(p.pid)), trace.Int("parent", int64(parent)))
	k.enqueue(p)
	return p
}

// enqueue makes p runnable and kicks the dispatcher.
func (k *Kernel) enqueue(p *Process) {
	if p.state == StateExited || p.state == StateStopped || p.queued {
		return
	}
	p.state = StateReady
	p.queued = true
	k.readyQ.Push(p)
	// Dispatch from a fresh event so callers (e.g. notify callbacks deep
	// in the TCP stack) never re-enter program code synchronously.
	k.engine.Schedule(0, k.dispatchFn)
}

// dispatch assigns ready processes to free CPUs.
func (k *Kernel) dispatch() {
	for k.busyCPUs < numCPUs && k.readyQ.Len() > 0 {
		p := k.readyQ.Pop()
		p.queued = false
		if p.state != StateReady {
			continue
		}
		k.runStep(p)
	}
}

// runStep executes one program step. The step's effects are applied
// atomically now; the consumed CPU time occupies a processor until the
// completion event, at which point the wait disposition takes effect.
func (k *Kernel) runStep(p *Process) {
	p.state = StateRunning
	k.busyCPUs++
	k.Stats.StepsRun++

	p.ctx.reset()
	res := p.prog.Step(&p.ctx)

	cost := res.CPU
	if cost < 0 {
		cost = 0
	}
	sysCost := sim.Duration(p.ctx.syscalls) * syscallCost
	if p.interposer != nil {
		sysCost += sim.Duration(p.ctx.syscalls) * p.interposer.SyscallOverhead()
	}
	cost += sysCost
	if p.cowFaults > 0 {
		cost += sim.Duration(p.cowFaults) * cowFaultCost
		p.cowFaults = 0
	}
	p.cpuTime += cost
	k.Stats.ContextTime += cost
	k.Stats.Syscalls += uint64(p.ctx.syscalls)

	p.stepRes = res
	k.engine.Schedule(cost, p.finishFn)
}

// finishStep releases the CPU and applies the disposition of the step
// whose CPU time just elapsed.
func (k *Kernel) finishStep(p *Process) {
	res := p.stepRes
	k.busyCPUs--
	defer k.dispatch()

	if p.state == StateExited {
		return // killed while the step's time was elapsing
	}
	if p.killed {
		k.exitProcess(p, 137)
		return
	}
	if res.Wait == WaitExit {
		k.exitProcess(p, res.ExitCode)
		return
	}
	if p.stopRequested {
		p.stopRequested = false
		p.state = StateStopped
		p.resumeWait = res
		if p.onStopped != nil {
			p.onStopped()
		}
		return
	}
	k.applyWait(p, res)
}

// applyWait parks or re-queues the process according to the disposition.
func (k *Kernel) applyWait(p *Process, res StepResult) {
	switch res.Wait {
	case WaitNone:
		p.state = StateReady
		k.enqueue(p)
	case WaitSleep:
		p.state = StateSleeping
		d := res.SleepFor
		if d < 0 {
			d = 0
		}
		p.sleepEv = k.engine.Schedule(d, p.wakeFn)
	case WaitFD:
		// Re-check readiness before parking: the condition may have
		// become true during the step's CPU time.
		if fd, ok := p.fds[res.FD]; ok && fd.file.ready(res.WaitWrite) {
			p.state = StateReady
			k.enqueue(p)
			return
		}
		p.state = StateBlocked
		p.waitFD = res.FD
	case WaitSem:
		s, ok := k.sems[res.SemID]
		if !ok || s.value > 0 {
			// Bad id (retry so the program sees the error) or a release
			// landed while this step's CPU time was elapsing — parking
			// now would miss the wakeup.
			p.state = StateReady
			k.enqueue(p)
			return
		}
		p.state = StateBlocked
		s.waiters = append(s.waiters, p)
	case WaitChild:
		if p.hasZombieChild() {
			p.state = StateReady
			k.enqueue(p)
			return
		}
		p.state = StateBlocked
		p.waitingChild = true
	default:
		p.state = StateReady
		k.enqueue(p)
	}
}

// wake makes a parked process runnable again. Spurious wakeups are safe:
// the program re-runs its step and retries its syscall.
func (k *Kernel) wake(p *Process) {
	switch p.state {
	case StateBlocked, StateSleeping, StateReady:
		if p.sleepEv != nil {
			k.engine.Cancel(p.sleepEv)
			p.sleepEv = nil
		}
		p.waitFD = -1
		p.waitingChild = false
		k.enqueue(p)
	}
}

// exitProcess tears a process down and reaps resources.
func (k *Kernel) exitProcess(p *Process, code int) {
	if p.state == StateExited {
		return
	}
	p.state = StateExited
	p.exitCode = code
	if p.sleepEv != nil {
		k.engine.Cancel(p.sleepEv)
		p.sleepEv = nil
	}
	// Close in sorted FD order: closing tears down TCP state (FIN, RTO
	// timers), and map order here would make kill traces nondeterministic.
	fdns := make([]int, 0, len(p.fds))
	for fdn := range p.fds {
		fdns = append(fdns, fdn)
	}
	sort.Ints(fdns)
	for _, fdn := range fdns {
		p.closeFD(fdn) //cruzvet:allow errdrop exit teardown over the proc's own fd table; EBADF cannot happen for keys of p.fds
	}
	delete(k.procs, p.pid)
	k.tr.Instant(k.name, "kernel", "exit",
		trace.Str("proc", p.name), trace.Int("pid", int64(p.pid)), trace.Int("code", int64(code)))
	// Wake a parent blocked in WaitChild.
	if parent, ok := k.procs[p.parent]; ok {
		parent.zombies = append(parent.zombies, ChildExit{PID: p.pid, Code: code})
		if parent.waitingChild {
			k.wake(parent)
		}
	}
	if p.onExit != nil {
		p.onExit(code)
	}
}

// Signal delivers a signal to the process with the given pid.
func (k *Kernel) Signal(pid int, sig Signal) error {
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNoProcess, pid)
	}
	k.tr.Instant(k.name, "kernel", "signal",
		trace.Str("sig", sig.String()), trace.Int("pid", int64(pid)))
	p.deliverSignal(sig)
	return nil
}

// Disk models a node-local disk with sequential bandwidth and positioning
// latency. Checkpoint images are written through it, which is what makes
// local checkpoint time scale with image size (Fig. 5a is dominated by
// this).
type Disk struct {
	engine *sim.Engine
	name   string // owning node, for trace scoping
	freeAt sim.Time

	// Stats counts disk activity.
	Stats DiskStats
}

// Engine returns the engine the disk schedules on.
func (d *Disk) Engine() *sim.Engine { return d.engine }

// Name returns the owning node's name (empty for bare test disks).
func (d *Disk) Name() string { return d.name }

// DiskStats counts disk activity.
type DiskStats struct {
	BytesWritten uint64
	BytesRead    uint64
	Ops          uint64
}

// xferTime returns how long size bytes take at bps.
func xferTime(size int64, bps int64) sim.Duration {
	return sim.Duration(size * int64(sim.Second) / bps)
}

// Write schedules an asynchronous write of size bytes, invoking done when
// it completes. Concurrent operations queue behind each other.
func (d *Disk) Write(size int64, done func()) {
	d.Stats.BytesWritten += uint64(size)
	d.op(xferTime(size, DiskWriteBPS), done)
}

// WriteContig schedules a write that continues a sequential stream:
// positioning latency is charged only if the disk is idle (the head has
// had time to move away). Back-to-back segments of one checkpoint image
// thus pay the seek once, matching a single large Write — this is what
// makes a pipelined segmented save cost the same disk time as a
// monolithic one.
func (d *Disk) WriteContig(size int64, done func()) {
	d.Stats.BytesWritten += uint64(size)
	d.Stats.Ops++
	start := d.engine.Now()
	lat := DiskLatency
	if d.freeAt > start {
		start = d.freeAt
		lat = 0
	}
	end := start.Add(lat + xferTime(size, DiskWriteBPS))
	d.freeAt = end
	d.engine.ScheduleAt(end, done)
}

// Read schedules an asynchronous read of size bytes.
func (d *Disk) Read(size int64, done func()) {
	d.Stats.BytesRead += uint64(size)
	d.op(xferTime(size, diskReadBPS), done)
}

func (d *Disk) op(xfer sim.Duration, done func()) {
	d.Stats.Ops++
	start := d.engine.Now()
	if d.freeAt > start {
		start = d.freeAt
	}
	end := start.Add(DiskLatency + xfer)
	d.freeAt = end
	d.engine.ScheduleAt(end, done)
}
