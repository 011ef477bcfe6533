package zap

import (
	"errors"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

type testRig struct {
	t       *testing.T
	engine  *sim.Engine
	sw      *ether.Switch
	kernels []*kernel.Kernel
	nics    []*ether.NIC
}

func newTestRig(t *testing.T, nodes int) *testRig {
	t.Helper()
	r := &testRig{t: t, engine: sim.NewEngine(11)}
	r.sw = ether.NewSwitch(r.engine)
	for i := 0; i < nodes; i++ {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(r.engine, "eth0", mac)
		r.sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(r.engine, "node")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		r.kernels = append(r.kernels, kernel.New(r.engine, "node", st))
		r.nics = append(r.nics, nic)
	}
	return r
}

func (r *testRig) run(d sim.Duration) {
	r.t.Helper()
	if err := r.engine.RunFor(d); err != nil {
		r.t.Fatal(err)
	}
}

func podIP(i int) tcpip.Addr { return tcpip.Addr{10, 0, 1, byte(i + 1)} }
func podMAC(i int) ether.MAC { return ether.MAC{2, 0, 0, 1, 0, byte(i + 1)} }

// pidProg records the pid the process observes.
type pidProg struct {
	Seen int
}

func (p *pidProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	p.Seen = ctx.PID()
	return kernel.Exit(0, 0)
}

// spinProg runs forever.
type spinProg struct{ Count int }

func (p *spinProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	p.Count++
	return kernel.Continue(sim.Millisecond)
}

// bindProg listens on a wildcard address and records where it landed.
// With Hold set it keeps the socket open forever.
type bindProg struct {
	Got  tcpip.AddrPort
	Hold bool
	done bool
}

func (p *bindProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	if !p.done {
		fd, err := ctx.Listen(tcpip.AddrPort{Port: 80}, 4)
		if err != nil {
			return kernel.Exit(0, 1)
		}
		p.Got, _ = ctx.LocalAddr(fd)
		p.done = true
	}
	if p.Hold {
		return kernel.Sleep(0, sim.Second)
	}
	return kernel.Exit(0, 0)
}

// hwaddrProg records the MAC SIOCGIFHWADDR reports.
type hwaddrProg struct {
	Got ether.MAC
}

func (p *hwaddrProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	m, err := ctx.HWAddr("eth0")
	if err != nil {
		return kernel.Exit(0, 1)
	}
	p.Got = m
	return kernel.Exit(0, 0)
}

// forkerProg spawns a child and records both observed pids.
type forkerProg struct {
	Child *pidProg
	MyPID int
	phase int
}

func (p *forkerProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch p.phase {
	case 0:
		p.MyPID = ctx.PID()
		if _, _, err := ctx.Spawn("child", p.Child); err != nil {
			return kernel.Exit(0, 1)
		}
		p.phase = 1
		return kernel.Continue(0)
	default:
		if _, err := ctx.WaitChild(); err == kernel.ErrWouldBlock {
			return kernel.WaitForChild(0)
		}
		return kernel.Exit(0, 0)
	}
}

func TestVirtualPIDs(t *testing.T) {
	r := newTestRig(t, 1)
	pod, err := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	if err != nil {
		t.Fatal(err)
	}
	// Burn some kernel pids so physical and virtual diverge.
	for i := 0; i < 5; i++ {
		r.kernels[0].Spawn("filler", &pidProg{}, 0)
	}
	r.run(sim.Millisecond)

	prog := &pidProg{}
	vpid, err := pod.Spawn("inpod", prog)
	if err != nil {
		t.Fatal(err)
	}
	r.run(10 * sim.Millisecond)
	if prog.Seen != vpid {
		t.Fatalf("process saw pid %d, want virtual pid %d", prog.Seen, vpid)
	}
	if vpid != 1 {
		t.Fatalf("first pod vpid = %d, want 1", vpid)
	}
}

func TestChildrenAdoptedIntoNamespace(t *testing.T) {
	r := newTestRig(t, 1)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	child := &pidProg{}
	forker := &forkerProg{Child: child}
	if _, err := pod.Spawn("forker", forker); err != nil {
		t.Fatal(err)
	}
	r.run(50 * sim.Millisecond)
	if forker.MyPID != 1 || child.Seen != 2 {
		t.Fatalf("vpids = parent %d child %d, want 1 and 2", forker.MyPID, child.Seen)
	}
}

func TestBindInterposedToPodVIF(t *testing.T) {
	r := newTestRig(t, 1)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	prog := &bindProg{Hold: true}
	pod.Spawn("binder", prog)
	r.run(10 * sim.Millisecond)
	if prog.Got.Addr != podIP(0) {
		t.Fatalf("wildcard bind landed on %v, want pod IP %v", prog.Got, podIP(0))
	}
	// A native process binds the true wildcard — but port 80 is taken by
	// the pod's listener, so the wildcard bind must fail (exit code 1);
	// this is exactly the contention restarted applications hit on
	// systems without pod virtualization.
	native := &bindProg{}
	np := r.kernels[0].Spawn("native", native, 0)
	r.run(10 * sim.Millisecond)
	if np.ExitCode() != 1 {
		t.Fatalf("native wildcard bind on occupied port: exit=%d addr=%v", np.ExitCode(), native.Got)
	}
}

func TestHWAddrInterposedToFakeMAC(t *testing.T) {
	r := newTestRig(t, 1)
	fakeMAC := ether.MAC{0xAA, 0xBB, 0xCC, 0, 0, 1}
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), FakeMAC: fakeMAC})
	prog := &hwaddrProg{}
	pod.Spawn("hw", prog)
	r.run(10 * sim.Millisecond)
	if prog.Got != fakeMAC {
		t.Fatalf("pod saw MAC %v, want fake %v", prog.Got, fakeMAC)
	}
	// Shared-MAC mode: the VIF uses the physical NIC's MAC.
	if !pod.SharedMAC() {
		t.Fatal("zero MAC config should share the physical MAC")
	}
	if pod.VIF().MAC != r.nics[0].PrimaryMAC() {
		t.Fatal("VIF not sharing physical MAC")
	}
}

func TestStopQuiescesAllProcesses(t *testing.T) {
	r := newTestRig(t, 1)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	progs := []*spinProg{{}, {}, {}}
	for i, pr := range progs {
		if _, err := pod.Spawn("spin", pr); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	r.run(20 * sim.Millisecond)
	var stoppedAt sim.Time
	pod.Stop(func() { stoppedAt = r.engine.Now() })
	r.run(10 * sim.Millisecond)
	if stoppedAt == 0 {
		t.Fatal("Stop callback never fired")
	}
	counts := []int{progs[0].Count, progs[1].Count, progs[2].Count}
	r.run(sim.Second)
	for i, pr := range progs {
		if pr.Count != counts[i] {
			t.Fatalf("process %d ran while pod stopped", i)
		}
	}
	if _, err := pod.Spawn("late", &spinProg{}); !errors.Is(err, ErrPodStopped) {
		t.Fatalf("spawn into stopped pod = %v", err)
	}
	pod.Resume()
	r.run(100 * sim.Millisecond)
	for i, pr := range progs {
		if pr.Count <= counts[i] {
			t.Fatalf("process %d did not resume", i)
		}
	}
}

func TestStopAlreadyStoppedFiresImmediately(t *testing.T) {
	r := newTestRig(t, 1)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("spin", &spinProg{})
	r.run(10 * sim.Millisecond)
	pod.Stop(nil)
	r.run(10 * sim.Millisecond)
	fired := false
	pod.Stop(func() { fired = true })
	if !fired {
		t.Fatal("second Stop should complete synchronously")
	}
}

func TestDestroyRemovesEverything(t *testing.T) {
	r := newTestRig(t, 2)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("spin", &spinProg{})
	r.run(10 * sim.Millisecond)
	if got := len(pod.VPIDs()); got != 1 {
		t.Fatalf("vpids = %d", got)
	}
	pod.Destroy()
	r.run(10 * sim.Millisecond)
	if len(r.kernels[0].Processes()) != 0 {
		t.Fatal("pod processes survived Destroy")
	}
	if r.kernels[0].Stack().InterfaceByName("vif:p1") != nil {
		t.Fatal("VIF survived Destroy")
	}
	if _, err := pod.Spawn("x", &spinProg{}); !errors.Is(err, ErrPodDead) {
		t.Fatalf("spawn into destroyed pod = %v", err)
	}
}

func TestPodKillByVPID(t *testing.T) {
	r := newTestRig(t, 1)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	vpid, _ := pod.Spawn("spin", &spinProg{})
	r.run(10 * sim.Millisecond)
	if err := pod.Kill(vpid, kernel.SIGKILL); err != nil {
		t.Fatal(err)
	}
	r.run(10 * sim.Millisecond)
	if pod.Process(vpid) != nil {
		t.Fatal("killed process still in pod namespace")
	}
	if err := pod.Kill(99, kernel.SIGKILL); !errors.Is(err, ErrNoSuchVPID) {
		t.Fatalf("kill bad vpid = %v", err)
	}
}

func TestTwoPodsIsolatedNamespaces(t *testing.T) {
	r := newTestRig(t, 1)
	podA, _ := New(r.kernels[0], "a", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	podB, err := New(r.kernels[0], "b", NetConfig{IP: podIP(1), MAC: podMAC(1)})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := &pidProg{}, &pidProg{}
	podA.Spawn("a1", pa)
	podB.Spawn("b1", pb)
	r.run(10 * sim.Millisecond)
	// Both see vpid 1 despite distinct kernel pids.
	if pa.Seen != 1 || pb.Seen != 1 {
		t.Fatalf("vpids = %d, %d; want 1, 1", pa.Seen, pb.Seen)
	}
	// Duplicate IP rejected.
	if _, err := New(r.kernels[0], "c", NetConfig{IP: podIP(0), MAC: podMAC(2)}); err == nil {
		t.Fatal("duplicate pod IP accepted")
	}
}

func TestInterposerAddsSyscallOverhead(t *testing.T) {
	r := newTestRig(t, 1)
	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	inPod := &pidProg{}
	pod.Spawn("in", inPod)
	r.run(10 * sim.Millisecond)
	podProcTime := r.kernels[0].Stats.ContextTime

	r2 := newTestRig(t, 1)
	r2.kernels[0].Spawn("native", &pidProg{}, 0)
	r2.run(10 * sim.Millisecond)
	nativeTime := r2.kernels[0].Stats.ContextTime

	if podProcTime <= nativeTime {
		t.Fatalf("pod CPU %v not greater than native %v", podProcTime, nativeTime)
	}
	if diff := podProcTime - nativeTime; diff != DefaultInterpositionCost {
		t.Fatalf("overhead = %v, want %v (one syscall)", diff, DefaultInterpositionCost)
	}
}

// killerProg kills a target vpid, then tries a pid outside the pod.
type killerProg struct {
	TargetVPID int
	OutsidePID int
	KillErr    string
	OutsideErr string
	done       bool
}

func (p *killerProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	if p.done {
		return kernel.Exit(0, 0)
	}
	p.done = true
	if err := ctx.Kill(p.TargetVPID, kernel.SIGKILL); err != nil {
		p.KillErr = err.Error()
	}
	if err := ctx.Kill(p.OutsidePID, kernel.SIGKILL); err != nil {
		p.OutsideErr = err.Error()
	}
	return kernel.Continue(0)
}

func TestInPodKillUsesVirtualPIDsAndIsolates(t *testing.T) {
	r := newTestRig(t, 1)
	// A native process whose physical pid the pod process will try to
	// kill — pod isolation must refuse, even though the pid exists.
	native := r.kernels[0].Spawn("native", &spinProg{}, 0)

	pod, _ := New(r.kernels[0], "p1", NetConfig{IP: podIP(0), MAC: podMAC(0)})
	victim := &spinProg{}
	victimVPID, _ := pod.Spawn("victim", victim)
	// Note: the native process's physical pid (1) coincides with the
	// victim's virtual pid — precisely the aliasing Zap's namespace
	// resolves in the pod's favour: pid arguments inside a pod are
	// always virtual, so native processes are unreachable by any number.
	killer := &killerProg{TargetVPID: victimVPID, OutsidePID: 99}
	pod.Spawn("killer", killer)
	r.run(50 * sim.Millisecond)

	if killer.KillErr != "" {
		t.Fatalf("in-pod kill failed: %s", killer.KillErr)
	}
	if pod.Process(victimVPID) != nil {
		t.Fatal("victim survived in-pod SIGKILL")
	}
	if killer.OutsideErr == "" {
		t.Fatal("kill of nonexistent vpid succeeded")
	}
	if native.State() == kernel.StateExited {
		t.Fatal("native process was killed through the pod boundary")
	}
}
