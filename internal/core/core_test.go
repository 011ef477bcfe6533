package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/zap"
)

func init() {
	ckpt.RegisterProgram(&ringWorker{})
}

// ringWorker is a miniature of the paper's parallel workloads: worker i
// sends a monotonically increasing round counter to its right neighbour
// and verifies the counter it receives from its left neighbour increments
// by exactly one each round. Any message lost, duplicated, or reordered
// across a checkpoint breaks the sequence and the worker records a fault.
type ringWorker struct {
	ID, N   int
	Port    uint16
	PeerIP  tcpip.Addr
	Compute sim.Duration

	// HeapPages, when nonzero, allocates a heap and stamps one page per
	// round, giving checkpoints a realistic memory payload.
	HeapPages uint64
	Heap      uint64

	Phase   int
	LFD     int
	InFD    int
	OutFD   int
	Rounds  uint64
	LastIn  uint64
	SendPtr int
	RecvBuf []byte
	Fault   string
}

func (w *ringWorker) fail(msg string) kernel.StepResult {
	w.Fault = msg
	return kernel.Exit(0, 2)
}

func (w *ringWorker) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch w.Phase {
	case 0: // listen
		fd, err := ctx.Listen(tcpip.AddrPort{Port: w.Port}, 4)
		if err != nil {
			return w.fail("listen: " + err.Error())
		}
		w.LFD = fd
		w.Phase = 1
		// Give every worker time to reach the listen state.
		return kernel.Sleep(0, 10*sim.Millisecond)
	case 1: // connect to the right neighbour
		fd, err := ctx.Connect(tcpip.AddrPort{Addr: w.PeerIP, Port: w.Port})
		if err != nil {
			return w.fail("connect: " + err.Error())
		}
		w.OutFD = fd
		w.Phase = 2
		return kernel.Continue(0)
	case 2: // wait for the outgoing connection
		ok, err := ctx.ConnEstablished(w.OutFD)
		if err != nil {
			return w.fail("establish: " + err.Error())
		}
		if !ok {
			return kernel.Sleep(0, sim.Millisecond)
		}
		w.Phase = 3
		return kernel.Continue(0)
	case 3: // accept from the left neighbour
		fd, err := ctx.Accept(w.LFD)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, w.LFD)
		}
		if err != nil {
			return w.fail("accept: " + err.Error())
		}
		w.InFD = fd
		w.Phase = 4
		return kernel.Continue(0)
	case 4: // compute, then send this round's counter
		if w.HeapPages > 0 {
			if w.Heap == 0 {
				base, err := ctx.Mem().Alloc(w.HeapPages*4096, "heap")
				if err != nil {
					return w.fail("alloc: " + err.Error())
				}
				w.Heap = base
			}
			off := (w.Rounds % w.HeapPages) * 4096
			if err := ctx.Mem().WriteUint64(w.Heap+off, w.Rounds); err != nil {
				return w.fail("stamp: " + err.Error())
			}
		}
		v := w.Rounds + 1
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		n, err := ctx.Send(w.OutFD, b[w.SendPtr:])
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnWrite(0, w.OutFD)
		}
		if err != nil {
			return w.fail("send: " + err.Error())
		}
		w.SendPtr += n
		if w.SendPtr < 8 {
			return kernel.Continue(0)
		}
		w.SendPtr = 0
		w.Phase = 5
		return kernel.Continue(w.Compute)
	case 5: // receive the left neighbour's counter
		buf := make([]byte, 8-len(w.RecvBuf))
		n, err := ctx.Recv(w.InFD, buf, false)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, w.InFD)
		}
		if err != nil {
			return w.fail("recv: " + err.Error())
		}
		w.RecvBuf = append(w.RecvBuf, buf[:n]...)
		if len(w.RecvBuf) < 8 {
			return kernel.Continue(0)
		}
		var v uint64
		for i, by := range w.RecvBuf {
			v |= uint64(by) << (8 * i)
		}
		w.RecvBuf = nil
		if v != w.LastIn+1 {
			return w.fail("sequence break")
		}
		w.LastIn = v
		w.Rounds++
		w.Phase = 4
		return kernel.Continue(0)
	}
	return w.fail("bad phase")
}

// cluster is the full test fixture: N application nodes with agents and
// pods running the ring, plus a coordinator node.
type cluster struct {
	t       *testing.T
	engine  *sim.Engine
	sw      *ether.Switch
	kernels []*kernel.Kernel
	agents  []*Agent
	stores  []*ckpt.Store
	pods    []*zap.Pod
	workers []*ringWorker
	coord   *Coordinator
	job     *Job
}

func podIP(i int) tcpip.Addr { return tcpip.Addr{10, 0, 1, byte(i + 1)} }

func newCluster(t *testing.T, n int, compute sim.Duration) *cluster {
	t.Helper()
	cl := &cluster{t: t, engine: sim.NewEngine(31)}
	cl.sw = ether.NewSwitch(cl.engine)
	mkNode := func(i int) *kernel.Kernel {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(cl.engine, "eth0", mac)
		cl.sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(cl.engine, "node")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		return kernel.New(cl.engine, "node", st)
	}
	job := &Job{Name: "ring"}
	for i := 0; i < n; i++ {
		k := mkNode(i)
		cl.kernels = append(cl.kernels, k)
		store := ckpt.NewStore(k.Disk())
		cl.stores = append(cl.stores, store)
		ag, err := NewAgent(k, store)
		if err != nil {
			t.Fatal(err)
		}
		cl.agents = append(cl.agents, ag)
		pod, err := zap.New(k, podName(i), zap.NetConfig{
			IP:  podIP(i),
			MAC: ether.MAC{2, 0, 0, 1, 0, byte(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := &ringWorker{ID: i, N: n, Port: 9000, PeerIP: podIP((i + 1) % n), Compute: compute, HeapPages: 1024}
		if _, err := pod.Spawn("worker", w); err != nil {
			t.Fatal(err)
		}
		ag.Manage(pod)
		cl.pods = append(cl.pods, pod)
		cl.workers = append(cl.workers, w)
		job.Members = append(job.Members, Member{Pod: podName(i), Agent: ag.Addr()})
	}
	// Coordinator on its own node.
	ck := mkNode(n)
	cl.kernels = append(cl.kernels, ck)
	cl.coord = NewCoordinator(ck.Stack())
	for i, ag := range cl.agents {
		cl.coord.RegisterNode(cl.kernels[i].Name(), ag.Addr())
	}
	cl.job = job

	connected := false
	cl.coord.Connect(job, func(err error) {
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		connected = true
	})
	cl.run(100 * sim.Millisecond)
	if !connected {
		t.Fatal("coordinator never connected to agents")
	}
	return cl
}

func podName(i int) string { return "ring-" + string(rune('a'+i)) }

func (cl *cluster) run(d sim.Duration) {
	cl.t.Helper()
	if err := cl.engine.RunFor(d); err != nil {
		cl.t.Fatal(err)
	}
}

// checkHealthy asserts no worker has recorded a fault or died.
func (cl *cluster) checkHealthy(workers []*ringWorker) {
	cl.t.Helper()
	for i, w := range workers {
		if w.Fault != "" {
			cl.t.Fatalf("worker %d fault: %s", i, w.Fault)
		}
	}
}

// checkHeap asserts that each worker's heap is as recent as its round
// counter: round r stamps page r % HeapPages with r, so every page i
// written yet must hold a v with v % HeapPages == i from the last lap
// (v + HeapPages + 1 >= Rounds). A restore that took a page from an older
// lap than the program state beside it fails here.
func (cl *cluster) checkHeap(workers []*ringWorker) {
	cl.t.Helper()
	for i, w := range workers {
		as := cl.agents[i].Pod(podName(i)).Process(1).Mem()
		stale := 0
		for pg := uint64(0); pg < min(w.Rounds, w.HeapPages); pg++ {
			v, err := as.ReadUint64(w.Heap + pg*4096)
			if err != nil {
				cl.t.Fatalf("worker %d heap page %d: %v", i, pg, err)
			}
			if v%w.HeapPages != pg || v+w.HeapPages+1 < w.Rounds {
				stale++
			}
		}
		if stale > 0 {
			cl.t.Fatalf("worker %d at round %d: %d of %d heap pages hold another lap's stamp",
				i, w.Rounds, stale, w.HeapPages)
		}
	}
}

// currentWorkers re-resolves worker programs after a restart.
func (cl *cluster) currentWorkers() []*ringWorker {
	cl.t.Helper()
	out := make([]*ringWorker, len(cl.agents))
	for i, ag := range cl.agents {
		pod := ag.Pod(podName(i))
		if pod == nil {
			cl.t.Fatalf("agent %d lost its pod", i)
		}
		proc := pod.Process(1)
		if proc == nil {
			cl.t.Fatalf("pod %d has no process", i)
		}
		out[i] = proc.Program().(*ringWorker)
	}
	return out
}

// runUntil advances in slices until cond or the cap is reached.
func (cl *cluster) runUntil(cond func() bool, cap sim.Duration) bool {
	cl.t.Helper()
	for waited := sim.Duration(0); waited < cap; waited += 20 * sim.Millisecond {
		if cond() {
			return true
		}
		cl.run(20 * sim.Millisecond)
	}
	return cond()
}

func (cl *cluster) checkpoint(opts CheckpointOptions) *CheckpointResult {
	cl.t.Helper()
	var res *CheckpointResult
	var cerr error
	doneFired := false
	cl.coord.Checkpoint(cl.job, opts, func(r *CheckpointResult, err error) {
		res, cerr, doneFired = r, err, true
	})
	if !cl.runUntil(func() bool { return doneFired }, 30*sim.Second) {
		cl.t.Fatal("checkpoint never completed")
	}
	if cerr != nil {
		cl.t.Fatalf("checkpoint: %v", cerr)
	}
	return res
}

func (cl *cluster) restart(seq int) *RestartResult {
	cl.t.Helper()
	var res *RestartResult
	var rerr error
	fired := false
	cl.coord.Restart(cl.job, seq, func(r *RestartResult, err error) {
		res, rerr, fired = r, err, true
	})
	if !cl.runUntil(func() bool { return fired }, 30*sim.Second) {
		cl.t.Fatal("restart never completed")
	}
	if rerr != nil {
		cl.t.Fatalf("restart: %v", rerr)
	}
	return res
}

func TestCoordinatedCheckpointBlocking(t *testing.T) {
	cl := newCluster(t, 4, 200*sim.Microsecond)
	cl.run(2 * sim.Second)
	cl.checkHealthy(cl.workers)
	before := cl.workers[0].Rounds
	if before == 0 {
		t.Fatal("ring never started")
	}

	res := cl.checkpoint(CheckpointOptions{})
	if res.Seq != 1 {
		t.Fatalf("seq = %d", res.Seq)
	}
	if res.Latency <= 0 || res.MaxLocalCheckpoint <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Overhead <= 0 || res.Overhead > 5*sim.Millisecond {
		t.Fatalf("coordination overhead = %v, expected sub-millisecond", res.Overhead)
	}
	if res.Overhead >= res.Latency/10 {
		t.Fatalf("overhead %v not negligible vs latency %v", res.Overhead, res.Latency)
	}
	if got, want := res.Messages, 4*4; got != want {
		t.Fatalf("messages = %d, want %d (O(N))", got, want)
	}
	if seq, ok := cl.coord.CommittedSeq("ring"); !ok || seq != 1 {
		t.Fatalf("committed = %d/%v", seq, ok)
	}

	// The application continues unharmed.
	cl.run(2 * sim.Second)
	cl.checkHealthy(cl.workers)
	if cl.workers[0].Rounds <= before {
		t.Fatal("ring did not progress after checkpoint")
	}
}

func TestCoordinatedRestartAfterCrash(t *testing.T) {
	cl := newCluster(t, 4, 200*sim.Microsecond)
	cl.run(2 * sim.Second)
	cl.checkpoint(CheckpointOptions{})
	roundsAtCkpt := make([]uint64, 4)
	for i, w := range cl.workers {
		roundsAtCkpt[i] = w.Rounds
	}

	// Let it run past the checkpoint, then crash every pod.
	cl.run(2 * sim.Second)
	for _, p := range cl.pods {
		p.Destroy()
	}
	cl.run(100 * sim.Millisecond)

	res := cl.restart(0)
	if res.Latency <= 0 {
		t.Fatalf("restart result: %+v", res)
	}
	if got, want := res.Messages, 4*4; got != want {
		t.Fatalf("restart messages = %d, want %d", got, want)
	}

	workers := cl.currentWorkers()
	// Rolled back to the checkpoint, not to zero and not to the crash
	// point.
	for i, w := range workers {
		if w.Rounds < roundsAtCkpt[i] || w.Rounds > roundsAtCkpt[i]+2 {
			t.Fatalf("worker %d restarted at %d rounds, checkpointed at %d", i, w.Rounds, roundsAtCkpt[i])
		}
	}
	cl.run(2 * sim.Second)
	cl.checkHealthy(workers)
	for i, w := range workers {
		if w.Rounds <= roundsAtCkpt[i] {
			t.Fatalf("worker %d stuck after restart", i)
		}
	}
}

func TestOptimizedProtocolCorrectAndFaster(t *testing.T) {
	cl := newCluster(t, 4, 200*sim.Microsecond)
	cl.run(sim.Second)

	blocking := cl.checkpoint(CheckpointOptions{})
	cl.run(sim.Second)
	optimized := cl.checkpoint(CheckpointOptions{Optimized: true})
	cl.run(sim.Second)
	cl.checkHealthy(cl.workers)

	// Fig. 5(a) latency (to last done) is similar, but the full cycle —
	// which includes how long pods stay frozen — must shrink: with the
	// optimization each node resumes as soon as its own save completes.
	if optimized.CycleLatency >= blocking.CycleLatency {
		t.Fatalf("optimized cycle %v not faster than blocking %v",
			optimized.CycleLatency, blocking.CycleLatency)
	}
	if got, want := optimized.Messages, 5*4; got != want {
		t.Fatalf("optimized messages = %d, want %d", got, want)
	}
}

func TestSequentialCheckpointsAdvanceSeq(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	cl.run(sim.Second)
	for want := 1; want <= 3; want++ {
		res := cl.checkpoint(CheckpointOptions{})
		if res.Seq != want {
			t.Fatalf("seq = %d, want %d", res.Seq, want)
		}
		cl.run(500 * sim.Millisecond)
	}
	cl.checkHealthy(cl.workers)
}

func TestIncrementalCoordinatedCheckpoint(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	cl.run(sim.Second)
	full := cl.checkpoint(CheckpointOptions{})
	cl.run(50 * sim.Millisecond)
	inc := cl.checkpoint(CheckpointOptions{Incremental: true})
	if inc.TotalImageBytes >= full.TotalImageBytes {
		t.Fatalf("incremental image %d B not smaller than full %d B",
			inc.TotalImageBytes, full.TotalImageBytes)
	}
	// Crash and restart from the incremental chain.
	roundsAt := cl.workers[0].Rounds
	cl.run(sim.Second)
	for _, p := range cl.pods {
		p.Destroy()
	}
	cl.restart(0)
	workers := cl.currentWorkers()
	if workers[0].Rounds > roundsAt+2 || workers[0].Rounds == 0 {
		t.Fatalf("restored rounds = %d, ckpt at ~%d", workers[0].Rounds, roundsAt)
	}
	cl.checkHeap(workers)
	cl.run(sim.Second)
	cl.checkHealthy(workers)
}

func TestAbortOnAgentFailure(t *testing.T) {
	cl := newCluster(t, 3, 200*sim.Microsecond)
	cl.run(sim.Second)

	// An unknown pod in the job makes one agent report an error; the
	// coordinator must abort and the healthy pods must keep running.
	badJob := &Job{Name: "bad", Members: append([]Member{}, cl.job.Members...)}
	badJob.Members[2].Pod = "ghost"
	fired := false
	cl.coord.Connect(badJob, func(error) {})
	cl.run(50 * sim.Millisecond)
	cl.coord.Checkpoint(badJob, CheckpointOptions{}, func(r *CheckpointResult, err error) {
		fired = true
		if !errors.Is(err, ErrAgentFailed) {
			t.Errorf("err = %v, want ErrAgentFailed", err)
		}
	})
	cl.run(10 * sim.Second)
	if !fired {
		t.Fatal("checkpoint callback never fired")
	}
	// All pods must be running again (aborted agents rolled back).
	cl.run(sim.Second)
	cl.checkHealthy(cl.workers)
	for i, p := range cl.pods {
		if p.Stopped() {
			t.Fatalf("pod %d left stopped after abort", i)
		}
	}
	if _, ok := cl.coord.CommittedSeq("bad"); ok {
		t.Fatal("aborted checkpoint was committed")
	}
}

// TestAbortOnAgentTimeout: an agent that goes silent mid-checkpoint is
// judged by the heartbeat lease. Its node is declared failed within one
// lease plus one heartbeat period of the fault, the checkpoint fails with
// ErrNodeFailed, and the pods the coordinator can still reach roll back.
func TestAbortOnAgentTimeout(t *testing.T) {
	cl := newCluster(t, 3, 200*sim.Microsecond)
	cl.coord.Watch(cl.job, func(*RecoveryResult, error) {})
	cl.run(sim.Second)
	// Cut one agent's node off the network entirely; its done can never
	// arrive. (Its own pod will stay frozen — that node is "failed" — but
	// the others must roll back.)
	deadNIC := cl.kernels[2].Stack().Interfaces()[0].NIC()
	cl.sw.SetLinkDown(deadNIC, true)
	fault := cl.engine.Now()

	var ended sim.Time
	fired := false
	cl.coord.Checkpoint(cl.job, CheckpointOptions{}, func(r *CheckpointResult, err error) {
		fired, ended = true, cl.engine.Now()
		if !errors.Is(err, ErrNodeFailed) {
			t.Errorf("err = %v, want ErrNodeFailed", err)
		}
	})
	cl.run(20 * sim.Second)
	if !fired {
		t.Fatal("the lease never failed the checkpoint")
	}
	if bound := DefaultLeaseTimeout + DefaultHeartbeatEvery + leaseSlack; ended.Sub(fault) > bound {
		t.Errorf("checkpoint failed %v after the fault, want within %v", ended.Sub(fault), bound)
	}
	// The reachable pods must have been rolled back to running.
	for i := 0; i < 2; i++ {
		if cl.pods[i].Stopped() {
			t.Fatalf("pod %d left stopped after the abort", i)
		}
	}
}

// TestConnectRefusesUnregisteredAgent: membership is total. A job with a
// member on a node RegisterNode never named is refused before anything is
// dialled, and so is a migration to such a node — whose member would
// otherwise be one the lease cannot judge.
func TestConnectRefusesUnregisteredAgent(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	stranger := tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, 9}, Port: cl.agents[0].Addr().Port}
	job := &Job{Name: "stray", Members: []Member{cl.job.Members[0], {Pod: "ghost", Agent: stranger}}}
	conns := len(cl.coord.stack.Conns())
	var cerr error
	cl.coord.Connect(job, func(err error) { cerr = err })
	if !errors.Is(cerr, ErrNotConnected) || !strings.Contains(cerr.Error(), "pod ghost") {
		t.Fatalf("Connect error = %v, want ErrNotConnected naming pod ghost", cerr)
	}
	if n := len(cl.coord.stack.Conns()); n != conns {
		t.Fatalf("a refused Connect dialled: %d connections, was %d", n, conns)
	}
	var merr error
	cl.coord.Migrate(cl.job, podName(0), stranger, MigrateOptions{}, func(_ *MigrationResult, err error) { merr = err })
	if !errors.Is(merr, ErrNotConnected) || cl.coord.OpenOps() != 0 {
		t.Fatalf("Migrate to an unregistered node: error %v, %d ops open; want ErrNotConnected and none", merr, cl.coord.OpenOps())
	}
	cl.checkpoint(CheckpointOptions{}) // the job it refused to change still runs
}

// TestUndecodableFrameDropsConnection: a frame the coordinator cannot
// decode drops that agent's connection, and the next op on the agent fails
// with ErrNotConnected instead of waiting on a reply that cannot come.
func TestUndecodableFrameDropsConnection(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	addr := cl.agents[1].Addr()
	cc, _ := cl.coord.ep.Link(addr)
	coordEnd := cc.TCP().LocalAddr()
	var agentEnd *tcpip.TCPConn
	for _, tc := range cl.kernels[1].Stack().Conns() {
		if tc.RemoteAddr() == coordEnd {
			agentEnd = tc
		}
	}
	if agentEnd == nil {
		t.Fatal("agent 1 holds no connection from the coordinator")
	}
	// One frame: a 4-byte length, a zero trace context, and 4 bytes that
	// are no message.
	frame := binary.BigEndian.AppendUint32(nil, 4)
	frame = append(append(frame, make([]byte, 16)...), "junk"...)
	if _, err := agentEnd.Send(frame); err != nil {
		t.Fatal(err)
	}
	cl.run(50 * sim.Millisecond)
	if _, ok := cl.coord.ep.Link(addr); ok {
		t.Fatal("the coordinator kept a connection that sent an undecodable frame")
	}
	var cerr error
	fired := false
	cl.coord.Checkpoint(cl.job, CheckpointOptions{}, func(_ *CheckpointResult, err error) { cerr, fired = err, true })
	cl.run(10 * sim.Millisecond)
	if !fired || !errors.Is(cerr, ErrNotConnected) {
		t.Fatalf("checkpoint after the drop: fired %v, err %v; want ErrNotConnected at once", fired, cerr)
	}
	cl.run(sim.Second)
	if cl.pods[0].Stopped() || cl.agents[0].OpenOps() != 0 {
		t.Fatal("the reachable agent did not roll back")
	}
}

// TestFetchFromANodeHoldingNothing: a fetch whose source holds neither the
// chain nor shards of the image is refused with an Err offer, and the
// fetching agent reports that error in its fetch-done, which fails the op.
func TestFetchFromANodeHoldingNothing(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	// The registry names agent 1 as a holder of an image nobody saved, so
	// a restart from it makes agent 0 pull from agent 1.
	solo := &Job{Name: "solo", Members: cl.job.Members[:1]}
	cl.coord.addHolder(podName(0), 9, cl.agents[1].Addr())
	var rerr error
	fired := false
	cl.coord.Restart(solo, 9, func(_ *RestartResult, err error) { rerr, fired = err, true })
	if !cl.runUntil(func() bool { return fired }, sim.Second) {
		t.Fatal("the refused fetch never ended the restart")
	}
	if !errors.Is(rerr, ErrNodeFailed) || !strings.Contains(rerr.Error(), "fetch "+podName(0)+": "+ckpt.ErrNoImage.Error()) {
		t.Fatalf("restart error = %v, want the source's refusal in the fetch-done", rerr)
	}
	for i, ag := range cl.agents {
		if n := ag.OpenOps(); n != 0 {
			t.Errorf("agent %d has %d open ops", i, n)
		}
	}
	if cl.pods[0].Stopped() {
		t.Error("the pod stopped for a restart that never reached it")
	}
}

func TestCheckpointUnknownJobPod(t *testing.T) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	// Double checkpoint: second call while first in flight must be
	// rejected.
	cl.coord.Checkpoint(cl.job, CheckpointOptions{}, func(*CheckpointResult, error) {})
	rejected := false
	cl.coord.Checkpoint(cl.job, CheckpointOptions{}, func(_ *CheckpointResult, err error) {
		rejected = errors.Is(err, ErrOpInProgress)
	})
	if !rejected {
		t.Fatal("concurrent checkpoint not rejected")
	}
	cl.run(10 * sim.Second)
}

func TestRingSurvivesManyCheckpointCycles(t *testing.T) {
	cl := newCluster(t, 3, 100*sim.Microsecond)
	cl.run(sim.Second)
	for i := 0; i < 5; i++ {
		cl.checkpoint(CheckpointOptions{Optimized: i%2 == 0})
		cl.run(300 * sim.Millisecond)
	}
	// Crash, restart, crash, restart.
	for cycle := 0; cycle < 2; cycle++ {
		cl.checkpoint(CheckpointOptions{})
		cl.run(200 * sim.Millisecond)
		for i, ag := range cl.agents {
			ag.Pod(podName(i)).Destroy()
		}
		cl.restart(0)
		cl.run(500 * sim.Millisecond)
		cl.checkHealthy(cl.currentWorkers())
	}
	workers := cl.currentWorkers()
	for i, w := range workers {
		if w.Rounds == 0 {
			t.Fatalf("worker %d made no progress", i)
		}
	}
}

func TestPrecopyShrinksFreezeAndRestores(t *testing.T) {
	cl := newCluster(t, 3, 200*sim.Microsecond)
	cl.run(sim.Second)

	plain := cl.checkpoint(CheckpointOptions{})
	cl.run(300 * sim.Millisecond)
	pre := cl.checkpoint(CheckpointOptions{
		Precopy: PrecopyConfig{MaxRounds: 3, DirtyThresholdPages: 8},
	})
	cl.run(300 * sim.Millisecond)
	cl.checkHealthy(cl.workers)

	// The pre-copy rounds stream the image while the ring runs; only the
	// residual dirty set is copied under SIGSTOP, so the freeze window
	// must collapse (the paper's O(image) → O(residual) claim).
	if pre.MaxBlocked*5 >= plain.MaxBlocked {
		t.Fatalf("precopy blocked %v vs plain %v — freeze did not shrink 5x",
			pre.MaxBlocked, plain.MaxBlocked)
	}
	// The committed sequence sits at the top of the reserved round block:
	// plain took 1, the precopy epoch occupies 2..5 with the residual at 5.
	if pre.Seq != 5 {
		t.Fatalf("precopy seq = %d, want 5 (rounds 2..4 + residual)", pre.Seq)
	}
	if seq, ok := cl.coord.CommittedSeq("ring"); !ok || seq != 5 {
		t.Fatalf("committed = %d/%v, want 5", seq, ok)
	}

	// Crash every pod and restart from the layered round chain.
	roundsAt := make([]uint64, len(cl.workers))
	for i, w := range cl.workers {
		roundsAt[i] = w.Rounds
	}
	for i, ag := range cl.agents {
		ag.Pod(podName(i)).Destroy()
	}
	cl.restart(0)
	workers := cl.currentWorkers()
	for i, w := range workers {
		if w.Rounds == 0 || w.Rounds > roundsAt[i] {
			t.Fatalf("worker %d restored at %d rounds, checkpoint was before %d",
				i, w.Rounds, roundsAt[i])
		}
	}
	cl.checkHeap(workers)
	cl.run(sim.Second)
	cl.checkHealthy(workers)
	for i, w := range workers {
		if w.Rounds <= roundsAt[i]/2 {
			t.Fatalf("worker %d stuck after precopy restart", i)
		}
	}
}

func TestPrecopyAbortRollsBackRounds(t *testing.T) {
	cl := newCluster(t, 3, 200*sim.Microsecond)
	cl.run(sim.Second)
	cl.checkpoint(CheckpointOptions{})
	cl.run(300 * sim.Millisecond)

	// An unknown pod makes one agent fail immediately; the healthy agents
	// may already be mid-round. The abort must discard every partial
	// round image and restore the dirty bits, so the next checkpoint is
	// still complete and restorable.
	badJob := &Job{Name: "ring", Members: append([]Member{}, cl.job.Members...)}
	badJob.Members[2].Pod = "ghost"
	fired := false
	cl.coord.Connect(badJob, func(error) {})
	cl.run(50 * sim.Millisecond)
	cl.coord.Checkpoint(badJob, CheckpointOptions{
		Precopy: PrecopyConfig{MaxRounds: 3},
	}, func(r *CheckpointResult, err error) {
		fired = true
		if err == nil {
			t.Error("checkpoint of job with ghost pod succeeded")
		}
	})
	cl.run(10 * sim.Second)
	if !fired {
		t.Fatal("abort callback never fired")
	}
	for i, p := range cl.pods {
		if p.Stopped() {
			t.Fatalf("pod %d left stopped after precopy abort", i)
		}
	}

	// A follow-up incremental precopy checkpoint must still restore
	// correctly: the redirtied pages are recaptured.
	cl.run(300 * sim.Millisecond)
	cl.checkpoint(CheckpointOptions{
		Incremental: true,
		Precopy:     PrecopyConfig{MaxRounds: 2},
	})
	roundsAt := cl.workers[0].Rounds
	for i, ag := range cl.agents {
		ag.Pod(podName(i)).Destroy()
	}
	cl.restart(0)
	workers := cl.currentWorkers()
	if workers[0].Rounds == 0 || workers[0].Rounds > roundsAt {
		t.Fatalf("restored rounds = %d, ckpt before %d", workers[0].Rounds, roundsAt)
	}
	cl.checkHeap(workers)
	cl.run(sim.Second)
	cl.checkHealthy(workers)
}

// TestAbortBetweenCaptureAndSaveKeepsDirtyPages: a stop-and-copy capture
// whose op dies before the store registers the image keeps nothing, so
// the next incremental epoch — chained on the last committed checkpoint —
// must still save every page written since that checkpoint. Agent 0's op
// is failed in that window; the coordinator's abort reaches agent 1's
// there too.
func TestAbortBetweenCaptureAndSaveKeepsDirtyPages(t *testing.T) {
	abortThenRestoreIncremental(t, CheckpointOptions{Dedup: true}, func(op *agentOp, store *ckpt.Store) bool {
		return op.captured && !store.HasSeq(op.Key, op.Seq)
	})
}

// TestAbortAfterAKeptRoundRewindsDirtyBase: a pre-copy epoch that dies
// after its store registered a round — moving the dirty base — must put
// the base back when it discards the round, or the next epoch, chained on
// the last committed checkpoint, misses what the round held.
func TestAbortAfterAKeptRoundRewindsDirtyBase(t *testing.T) {
	abortThenRestoreIncremental(t, CheckpointOptions{Dedup: true, Precopy: PrecopyConfig{MaxRounds: 3}},
		func(op *agentOp, _ *ckpt.Store) bool { return len(op.roundSeqs) > 0 })
}

// abortThenRestoreIncremental commits a deduplicated checkpoint of a 2-node
// ring, starts one with opts and fails agent 0's op the moment when holds,
// takes an incremental pre-copy checkpoint and restarts the ring from it:
// every heap page must come back from the lap its program state is in.
func abortThenRestoreIncremental(t *testing.T, opts CheckpointOptions, when func(*agentOp, *ckpt.Store) bool) {
	cl := newCluster(t, 2, 200*sim.Microsecond)
	cl.run(sim.Second)
	cl.checkpoint(CheckpointOptions{Dedup: true})
	cl.run(400 * sim.Millisecond)

	fired := false
	cl.coord.Checkpoint(cl.job, opts, func(_ *CheckpointResult, err error) {
		fired = true
		if err == nil {
			t.Error("the checkpoint whose op failed committed")
		}
	})
	ag := cl.agents[0]
	for horizon := cl.engine.Now().Add(sim.Second); ; {
		if op := ctl.Find[agentOp](ag.table, podName(0)); op != nil && when(op, cl.stores[0]) {
			ag.failOp(op, errors.New("injected failure"))
			break
		}
		if !cl.engine.Step() || cl.engine.Now() > horizon {
			t.Fatal("agent 0's op never reached the failure point")
		}
	}
	if !cl.runUntil(func() bool { return fired }, 10*sim.Second) {
		t.Fatal("the failed checkpoint never reported")
	}
	cl.run(20 * sim.Millisecond)
	cl.checkpoint(CheckpointOptions{Dedup: true, Incremental: true, Precopy: PrecopyConfig{MaxRounds: 2}})
	for i, ag := range cl.agents {
		ag.Pod(podName(i)).Destroy()
	}
	cl.restart(0)
	workers := cl.currentWorkers()
	cl.checkHeap(workers)
	cl.run(sim.Second)
	cl.checkHealthy(workers)
}

func TestCOWResumesBeforeWriteCompletes(t *testing.T) {
	cl := newCluster(t, 3, 200*sim.Microsecond)
	cl.run(sim.Second)

	plain := cl.checkpoint(CheckpointOptions{})
	cl.run(300 * sim.Millisecond)
	cow := cl.checkpoint(CheckpointOptions{COW: true})
	cl.run(300 * sim.Millisecond)
	cl.checkHealthy(cl.workers)

	// Under COW the pods are frozen only for quiesce+capture, not the
	// disk write: blocked time must collapse by an order of magnitude.
	if cow.MaxBlocked*5 >= plain.MaxBlocked {
		t.Fatalf("COW blocked %v vs plain %v — no real overlap", cow.MaxBlocked, plain.MaxBlocked)
	}
	// But the commit (Fig. 5a latency) still waits for the writes.
	if cow.Latency < plain.Latency/2 {
		t.Fatalf("COW latency %v suspiciously small vs %v", cow.Latency, plain.Latency)
	}
	// And a crash right after commit restarts cleanly from the COW image.
	for i, ag := range cl.agents {
		ag.Pod(podName(i)).Destroy()
	}
	cl.restart(0)
	cl.checkHeap(cl.currentWorkers())
	cl.run(500 * sim.Millisecond)
	cl.checkHealthy(cl.currentWorkers())
}

// leaseSlack bounds what a lease verdict may take beyond DefaultLeaseTimeout
// + DefaultHeartbeatEvery after a fault: the coordinator stamps a pong when
// its serialized CPU reaches it, so one that arrived before the fault can
// be stamped after it, behind the message costs queued in front.
const leaseSlack = sim.Millisecond
