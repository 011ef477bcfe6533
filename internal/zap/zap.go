// Package zap implements the Zap process-virtualization layer the paper
// builds on (Osman et al., OSDI 2002): PrOcess Domains ("pods") — private
// virtualized namespaces created by a thin interposition layer between
// applications and the OS — plus this work's extensions: a per-pod
// virtual network interface with migratable, externally routable IP and
// MAC addresses (§4.2).
//
// A pod gives its processes:
//
//   - a private virtual-PID namespace, decoupled from kernel pids, so a
//     restarted pod works even when its old pids are in use (the paper's
//     headline advantage over BLCR);
//   - a virtual network interface (VIF) that is the only interface its
//     processes can see or bind to — bind and connect are interposed to
//     land on the VIF's address;
//   - an interposed SIOCGIFHWADDR so DHCP clients inside the pod see a
//     stable "fake" MAC that survives migration even when the physical
//     MAC cannot move.
package zap

import (
	"errors"
	"fmt"
	"slices"

	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Errors returned by pod operations.
var (
	ErrPodStopped  = errors.New("zap: pod is stopped")
	ErrNoSuchVPID  = errors.New("zap: no such virtual pid")
	ErrPodDead     = errors.New("zap: pod destroyed")
	ErrNoInterface = errors.New("zap: node has no physical interface")
)

// DefaultInterpositionCost is the per-syscall CPU overhead of the thin
// virtualization layer (DESIGN §5). The paper measures total runtime
// overhead below 0.5%, "since the underlying Zap mechanism requires
// nothing more than virtualizing identifiers".
const DefaultInterpositionCost = 150 * sim.Nanosecond

// NetConfig describes a pod's virtual network interface.
type NetConfig struct {
	// IP is the pod's externally routable address (static assignment; a
	// DHCP client inside the pod may instead obtain one dynamically).
	IP tcpip.Addr
	// MAC is the VIF's hardware address. Zero means the VIF shares the
	// physical NIC's MAC (the paper's alternate solution for hardware
	// without multi-MAC support); migration then relies on gratuitous
	// ARP to move the IP.
	MAC ether.MAC
	// FakeMAC, if nonzero, is returned by the interposed SIOCGIFHWADDR
	// so DHCP leases keyed on it survive migration. Defaults to MAC (or
	// the physical MAC when MAC is zero).
	FakeMAC ether.MAC
}

// Pod is a PrOcess Domain: a group of processes with private namespaces
// that checkpoint, restart, and migrate as a unit.
type Pod struct {
	name      string
	kern      *kernel.Kernel
	cfg       NetConfig
	vif       *tcpip.Interface
	sharedMAC bool

	procs    map[int]*kernel.Process // vpid -> process
	vpids    map[int]int             // physical pid -> vpid
	ended    map[int]kernel.Program  // vpid -> program that exited on its own
	nextVPID int

	stopped   bool
	destroyed bool

	// ipcIDs records which kernel IPC objects belong to this pod (for
	// checkpointing; the kernel table is node-global).
	shmIDs map[int]bool
	semIDs map[int]bool

	interposer podInterposer
}

// New creates a pod on the given node with a fresh VIF.
func New(kern *kernel.Kernel, name string, cfg NetConfig) (*Pod, error) {
	p := &Pod{
		name:     name,
		kern:     kern,
		cfg:      cfg,
		procs:    make(map[int]*kernel.Process),
		vpids:    make(map[int]int),
		nextVPID: 1,
		shmIDs:   make(map[int]bool),
		semIDs:   make(map[int]bool),
	}
	p.interposer.pod = p
	if err := p.attachVIF(); err != nil {
		return nil, err
	}
	return p, nil
}

// attachVIF creates the pod's virtual interface on the node's stack,
// backed by the node's physical NIC.
func (p *Pod) attachVIF() error {
	st := p.kern.Stack()
	if st == nil {
		return ErrNoInterface
	}
	ifaces := st.Interfaces()
	if len(ifaces) == 0 {
		return ErrNoInterface
	}
	nic := ifaces[0].NIC()
	mac := p.cfg.MAC
	if mac.IsZero() {
		mac = nic.PrimaryMAC()
		p.sharedMAC = true
	}
	vif, err := st.AddInterface("vif:"+p.name, p.cfg.IP, mac, nic, true)
	if err != nil {
		return err
	}
	p.vif = vif
	trace.FromEngine(p.kern.Engine()).Instant(p.kern.Name(), "zap", "vif.attach",
		trace.Str("pod", p.name), trace.Str("ip", p.cfg.IP.String()))
	return nil
}

// Name returns the pod's name.
func (p *Pod) Name() string { return p.name }

// Kernel returns the node the pod currently lives on.
func (p *Pod) Kernel() *kernel.Kernel { return p.kern }

// IP returns the pod's network address.
func (p *Pod) IP() tcpip.Addr { return p.cfg.IP }

// VIF returns the pod's virtual interface.
func (p *Pod) VIF() *tcpip.Interface { return p.vif }

// Config returns the pod's network configuration.
func (p *Pod) Config() NetConfig { return p.cfg }

// SharedMAC reports whether the VIF shares the physical NIC's MAC (the
// no-multi-MAC fallback mode).
func (p *Pod) SharedMAC() bool { return p.sharedMAC }

// FakeMAC returns the MAC the pod's processes observe via SIOCGIFHWADDR.
func (p *Pod) FakeMAC() ether.MAC {
	if !p.cfg.FakeMAC.IsZero() {
		return p.cfg.FakeMAC
	}
	if !p.cfg.MAC.IsZero() {
		return p.cfg.MAC
	}
	return p.vif.MAC
}

// Spawn starts a program inside the pod, returning its virtual pid.
func (p *Pod) Spawn(name string, prog kernel.Program) (int, error) {
	if p.destroyed {
		return 0, ErrPodDead
	}
	if p.stopped {
		return 0, ErrPodStopped
	}
	proc := p.kern.Spawn(name, prog, 0)
	return p.adopt(proc), nil
}

// SpawnAt starts a program under an explicit virtual pid — the restore
// path. The kernel assigns whatever physical pid is free; the preserved
// vpid is what the application observes, which is how Zap restarts
// applications even when their former pids are taken by other processes.
func (p *Pod) SpawnAt(name string, prog kernel.Program, vpid int) (*kernel.Process, error) {
	if p.destroyed {
		return nil, ErrPodDead
	}
	if _, taken := p.procs[vpid]; taken {
		return nil, fmt.Errorf("zap: vpid %d already in use in pod %s", vpid, p.name)
	}
	proc := p.kern.Spawn(name, prog, 0)
	p.adoptAt(proc, vpid)
	return proc, nil
}

// adopt registers a process in the pod's namespace with a fresh vpid.
func (p *Pod) adopt(proc *kernel.Process) int {
	vpid := p.nextVPID
	p.nextVPID++
	p.adoptAt(proc, vpid)
	return vpid
}

// adoptAt registers a process under a specific vpid (restore path — this
// is precisely how Zap restarts processes whose pids are taken: the vpid
// is preserved, the physical pid is whatever the kernel hands out).
func (p *Pod) adoptAt(proc *kernel.Process, vpid int) {
	p.procs[vpid] = proc
	p.vpids[proc.PID()] = vpid
	if vpid >= p.nextVPID {
		p.nextVPID = vpid + 1
	}
	proc.SetInterposer(&p.interposer)
	proc.SetOnExit(func(code int) {
		delete(p.procs, vpid)
		delete(p.vpids, proc.PID())
		if code != 128+int(kernel.SIGKILL) { // not killed
			if p.ended == nil {
				p.ended = make(map[int]kernel.Program)
			}
			p.ended[vpid] = proc.Program()
		}
	})
}

// Process returns the pod process with the given virtual pid, or nil.
func (p *Pod) Process(vpid int) *kernel.Process { return p.procs[vpid] }

// Program returns the program of the process with the given virtual pid:
// a live one's, or one's that exited on its own rather than being killed,
// so a program that ended by reporting a failure can still be read. It is
// nil for a vpid never used or whose process was killed.
func (p *Pod) Program(vpid int) kernel.Program {
	if proc := p.procs[vpid]; proc != nil {
		return proc.Program()
	}
	return p.ended[vpid]
}

// VPIDs returns the pod's live virtual pids in ascending order.
func (p *Pod) VPIDs() []int {
	out := make([]int, 0, len(p.procs))
	for v := 1; v < p.nextVPID; v++ {
		if _, ok := p.procs[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// DirtyPages returns the total number of pages dirtied across the pod's
// processes since their dirty tracking was last cleared. The pre-copy
// policy reads it between rounds to decide whether another live round is
// worth taking or the residual is small enough to stop-and-copy.
func (p *Pod) DirtyPages() int {
	n := 0
	for _, vpid := range p.VPIDs() {
		n += p.procs[vpid].Mem().DirtyPages()
	}
	return n
}

// ResidentPages returns the total materialized pages across the pod's
// processes — the size of a full (round-0) pre-copy transfer.
func (p *Pod) ResidentPages() int {
	n := 0
	for _, vpid := range p.VPIDs() {
		n += p.procs[vpid].Mem().ResidentPages()
	}
	return n
}

// NextVPID exposes the namespace high-water mark (checkpointed so vpids
// never collide across restarts).
func (p *Pod) NextVPID() int { return p.nextVPID }

// SetNextVPID restores the namespace high-water mark.
func (p *Pod) SetNextVPID(v int) {
	if v > p.nextVPID {
		p.nextVPID = v
	}
}

// Kill delivers a signal to a pod process by virtual pid.
func (p *Pod) Kill(vpid int, sig kernel.Signal) error {
	proc, ok := p.procs[vpid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVPID, vpid)
	}
	return p.kern.Signal(proc.PID(), sig)
}

// Stop sends SIGSTOP to every pod process and invokes done once all of
// them have actually quiesced (a step may still be finishing when the
// signal lands). This is the first action of a local checkpoint.
func (p *Pod) Stop(done func()) {
	if p.stopped {
		if done != nil {
			done()
		}
		return
	}
	p.stopped = true
	sp := trace.FromEngine(p.kern.Engine()).Begin(p.kern.Name(), "zap", "pod.stop", trace.Str("pod", p.name))
	remaining := 0
	check := func() {
		if remaining == 0 {
			sp.End()
			if done != nil {
				done()
				done = nil
			}
		}
	}
	// Iterate in vpid order: p.procs is a map, and signal order must not
	// depend on map iteration (the tracer records it).
	for _, vpid := range p.VPIDs() {
		proc := p.procs[vpid]
		if proc.Stopped() || proc.State() == kernel.StateExited {
			continue
		}
		remaining++
		proc.SetOnStopped(func() {
			proc.SetOnStopped(nil)
			remaining--
			check()
		})
		p.kern.Signal(proc.PID(), kernel.SIGSTOP) //cruzvet:allow errdrop pid verified live in this same event; Signal only fails for unknown pids
	}
	check()
}

// Resume sends SIGCONT to every pod process.
func (p *Pod) Resume() {
	if !p.stopped {
		return
	}
	p.stopped = false
	trace.FromEngine(p.kern.Engine()).Instant(p.kern.Name(), "zap", "pod.resume", trace.Str("pod", p.name))
	for _, vpid := range p.VPIDs() {
		p.kern.Signal(p.procs[vpid].PID(), kernel.SIGCONT) //cruzvet:allow errdrop SIGCONT to a proc that exited before the stop is a harmless no-op
	}
}

// Stopped reports whether the pod is stopped.
func (p *Pod) Stopped() bool { return p.stopped }

// TrackShm marks a kernel shm segment as belonging to this pod.
func (p *Pod) TrackShm(id int) { p.shmIDs[id] = true }

// TrackSem marks a kernel semaphore as belonging to this pod.
func (p *Pod) TrackSem(id int) { p.semIDs[id] = true }

// ShmIDs returns the pod's shared-memory segment ids in ascending order.
func (p *Pod) ShmIDs() []int { return sortedKeys(p.shmIDs) }

// SemIDs returns the pod's semaphore ids in ascending order.
func (p *Pod) SemIDs() []int { return sortedKeys(p.semIDs) }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Destroy kills all pod processes silently, destroys their sockets
// without notifying peers (their state lives on in a checkpoint image, if
// one was taken), removes the pod's IPC objects, and deletes the VIF.
// After a migration this runs on the source node.
func (p *Pod) Destroy() {
	if p.destroyed {
		return
	}
	p.destroyed = true
	trace.FromEngine(p.kern.Engine()).Instant(p.kern.Name(), "zap", "pod.destroy", trace.Str("pod", p.name))
	for _, vpid := range p.VPIDs() {
		proc := p.procs[vpid]
		// Destroy sockets first so closing fds at exit cannot emit FINs
		// from a pod that must disappear silently. fd order, like vpid
		// order above, is fixed so the trace is reproducible.
		fds := proc.FDs()
		for _, n := range sortedKeys(fds) {
			fd := fds[n]
			switch fd.Kind() {
			case kernel.FDConn:
				fd.Conn().Destroy()
			case kernel.FDListener:
				fd.Listener().Close()
			case kernel.FDUDP:
				fd.UDP().Close()
			}
		}
		p.kern.Signal(proc.PID(), kernel.SIGKILL) //cruzvet:allow errdrop destroy path; SIGKILL to an already-exited proc is the intended no-op
	}
	for _, id := range p.ShmIDs() {
		p.kern.RemoveShm(id)
	}
	for _, id := range p.SemIDs() {
		p.kern.RemoveSem(id)
	}
	if p.vif != nil {
		p.kern.Stack().RemoveInterface(p.vif) //cruzvet:allow errdrop vif was registered at pod creation and removed exactly once under the destroyed guard
		p.vif = nil
	}
}

// Destroyed reports whether Destroy ran.
func (p *Pod) Destroyed() bool { return p.destroyed }

// AnnounceLocation broadcasts a gratuitous ARP for the pod's address,
// updating the switch and remote peers after a migration.
func (p *Pod) AnnounceLocation() {
	if p.vif != nil {
		p.kern.Stack().AnnounceGratuitousARP(p.vif)
	}
}

// podInterposer implements kernel.Interposer for one pod.
type podInterposer struct {
	pod *Pod
}

func (i *podInterposer) RewriteBind(req tcpip.AddrPort) tcpip.AddrPort {
	// "checks if the calling process is in a pod, and if so replaces the
	// network address argument with the IP address of the pod's VIF."
	req.Addr = i.pod.cfg.IP
	return req
}

func (i *podInterposer) RewriteConnectLocal() tcpip.Addr {
	// "The wrapper ensures that sockets in a pod are bound to the pod's
	// IP address on a free port."
	return i.pod.cfg.IP
}

func (i *podInterposer) HWAddr(string, ether.MAC) ether.MAC {
	// SIOCGIFHWADDR interception: the pod's (fake) MAC, stable across
	// migration.
	return i.pod.FakeMAC()
}

func (i *podInterposer) VirtualPID(real int) int {
	if v, ok := i.pod.vpids[real]; ok {
		return v
	}
	return real
}

func (i *podInterposer) TranslatePID(virtual int) (int, bool) {
	if proc, ok := i.pod.procs[virtual]; ok {
		return proc.PID(), true
	}
	return 0, false
}

func (i *podInterposer) SyscallOverhead() sim.Duration {
	return DefaultInterpositionCost
}

func (i *podInterposer) ChildSpawned(child *kernel.Process) {
	i.pod.adopt(child)
}
