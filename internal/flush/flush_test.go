package flush

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"cruz/internal/ckpt"
	"cruz/internal/core"
	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

func init() {
	ckpt.RegisterProgram(&chatterProg{})
}

// chatterProg sends a numbered byte stream to its right neighbour and
// verifies its left neighbour's stream, like the core tests' ring worker
// but with bulkier messages so channels actually hold in-flight data.
type chatterProg struct {
	ID, N  int
	PeerIP tcpip.Addr
	Phase  int
	LFD    int
	InFD   int
	OutFD  int
	SentB  uint64
	RecvB  uint64
	Fault  string
}

func (w *chatterProg) fail(msg string) kernel.StepResult {
	w.Fault = msg
	return kernel.Exit(0, 2)
}

func (w *chatterProg) Step(ctx *kernel.ProcContext) kernel.StepResult {
	const chunk = 1000
	switch w.Phase {
	case 0:
		fd, err := ctx.Listen(tcpip.AddrPort{Port: 9100}, 4)
		if err != nil {
			return w.fail("listen")
		}
		w.LFD = fd
		w.Phase = 1
		return kernel.Sleep(0, 10*sim.Millisecond)
	case 1:
		fd, err := ctx.Connect(tcpip.AddrPort{Addr: w.PeerIP, Port: 9100})
		if err != nil {
			return w.fail("connect")
		}
		w.OutFD = fd
		w.Phase = 2
		return kernel.Continue(0)
	case 2:
		ok, err := ctx.ConnEstablished(w.OutFD)
		if err != nil {
			return w.fail("establish")
		}
		if !ok {
			return kernel.Sleep(0, sim.Millisecond)
		}
		w.Phase = 3
		return kernel.Continue(0)
	case 3:
		fd, err := ctx.Accept(w.LFD)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, w.LFD)
		}
		if err != nil {
			return w.fail("accept")
		}
		w.InFD = fd
		w.Phase = 4
		return kernel.Continue(0)
	default:
		// Alternate sending a chunk and draining whatever arrived,
		// verifying the numbered stream.
		b := make([]byte, chunk)
		for i := range b {
			b[i] = byte(w.SentB + uint64(i))
		}
		if n, err := ctx.Send(w.OutFD, b); err == nil {
			w.SentB += uint64(n)
		}
		rb := make([]byte, 4096)
		n, err := ctx.Recv(w.InFD, rb, false)
		if err == nil {
			for i := 0; i < n; i++ {
				if rb[i] != byte(w.RecvB+uint64(i)) {
					return w.fail("stream corruption")
				}
			}
			w.RecvB += uint64(n)
		}
		return kernel.Continue(200 * sim.Microsecond)
	}
}

type rig struct {
	t      *testing.T
	engine *sim.Engine
	sw     *ether.Switch
	coord  *Coordinator
	job    *Job
	progs  []*chatterProg
	pods   []*zap.Pod
	agents []*Agent     // one per node
	nics   []*ether.NIC // node i's at i
}

func podIP(i int) tcpip.Addr { return tcpip.Addr{10, 0, 1, byte(i + 1)} }

func newRig(t *testing.T, n int) *rig { return newPodRig(t, n, 1) }

// newPodRig builds nodes nodes of perNode chatter pods each, ringed in
// the order they are made, a flushing agent on every node, and a
// coordinator on a node of its own connected to them all. It traces, so
// open spans show.
func newPodRig(t *testing.T, nodes, perNode int) *rig {
	t.Helper()
	r := &rig{t: t, engine: sim.NewEngine(41)}
	trace.New(r.engine, 0)
	r.sw = ether.NewSwitch(r.engine)
	job := &Job{Name: "chat"}
	n := nodes * perNode
	for i := 0; i < n; i++ {
		if i%perNode == 0 {
			k := r.node(i / perNode)
			ag, err := NewAgent(k)
			if err != nil {
				t.Fatal(err)
			}
			r.agents = append(r.agents, ag)
		}
		ag := r.agents[len(r.agents)-1]
		pod, err := zap.New(ag.kern, "chat-"+string(rune('a'+i)), zap.NetConfig{
			IP:  podIP(i),
			MAC: ether.MAC{2, 0, 0, 1, 0, byte(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &chatterProg{ID: i, N: n, PeerIP: podIP((i + 1) % n)}
		if _, err := pod.Spawn("chatter", p); err != nil {
			t.Fatal(err)
		}
		ag.Manage(pod)
		r.progs = append(r.progs, p)
		r.pods = append(r.pods, pod)
		job.Members = append(job.Members, Member{Pod: pod.Name(), PodIP: podIP(i), Agent: ag.Addr()})
	}
	r.job = job
	r.coord = r.coordinator(nodes, job)
	return r
}

// node attaches node i, at 10.0.0.(i+1), to the rig's switch.
func (r *rig) node(i int) *kernel.Kernel {
	mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
	nic := ether.NewNIC(r.engine, "eth0", mac)
	r.sw.Attach(nic, ether.GigabitLink)
	r.nics = append(r.nics, nic)
	st := tcpip.NewStack(r.engine, "node")
	if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
		r.t.Fatal(err)
	}
	return kernel.New(r.engine, "node", st)
}

// coordinator starts a coordinator on node i and connects it to job's
// agents.
func (r *rig) coordinator(i int, job *Job) *Coordinator {
	r.t.Helper()
	c := NewCoordinator(r.node(i).Stack())
	connected := false
	c.Connect(job, func(err error) {
		if err != nil {
			r.t.Fatalf("connect: %v", err)
		}
		connected = true
	})
	r.run(100 * sim.Millisecond)
	if !connected {
		r.t.Fatal("never connected")
	}
	return c
}

// settled fails the test if a pod is stopped or its program faulted, or
// an op or a trace span is still open.
func (r *rig) settled() {
	r.t.Helper()
	for i, pod := range r.pods {
		if pod.Stopped() || r.progs[i].Fault != "" {
			r.t.Errorf("pod %d: stopped %v, fault %q", i, pod.Stopped(), r.progs[i].Fault)
		}
	}
	if k := r.coord.OpenOps(); k != 0 {
		r.t.Errorf("coordinator has %d open ops", k)
	}
	for i, a := range r.agents {
		if k := a.OpenOps(); k != 0 {
			r.t.Errorf("agent %d has %d open ops", i, k)
		}
	}
	if spans := trace.FromEngine(r.engine).OpenSpanNames(); len(spans) != 0 {
		r.t.Errorf("spans still open: %v", spans)
	}
}

func (r *rig) run(d sim.Duration) {
	r.t.Helper()
	if err := r.engine.RunFor(d); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) checkpoint() *Result {
	r.t.Helper()
	return r.checkpointAll(r.job)[0]
}

// checkpointAll starts a checkpoint of every job in the same event and
// waits for all of them to complete.
func (r *rig) checkpointAll(jobs ...*Job) []*Result {
	r.t.Helper()
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	fired := 0
	for i, job := range jobs {
		r.coord.Checkpoint(job, func(got *Result, err error) {
			results[i], errs[i] = got, err
			fired++
		})
	}
	for i := 0; i < 500 && fired < len(jobs); i++ {
		r.run(20 * sim.Millisecond)
	}
	for i, job := range jobs {
		switch {
		case errs[i] != nil:
			r.t.Fatalf("flush checkpoint of %s: %v", job.Name, errs[i])
		case results[i] == nil:
			r.t.Fatalf("flush checkpoint of %s never completed", job.Name)
		}
	}
	return results
}

func TestFlushCheckpointCorrectness(t *testing.T) {
	r := newRig(t, 4)
	r.run(sim.Second)
	for i, p := range r.progs {
		if p.Fault != "" {
			t.Fatalf("prog %d fault before checkpoint: %s", i, p.Fault)
		}
		if p.SentB == 0 {
			t.Fatalf("prog %d never sent", i)
		}
	}
	res := r.checkpoint()
	if res.Latency <= 0 || res.MaxFlush <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// The app continues, stream intact (drained bytes preserved in the
	// library buffer).
	sent := r.progs[0].SentB
	r.run(sim.Second)
	for i, p := range r.progs {
		if p.Fault != "" {
			t.Fatalf("prog %d fault after checkpoint: %s", i, p.Fault)
		}
	}
	if r.progs[0].SentB <= sent {
		t.Fatal("app did not progress after flush checkpoint")
	}
}

func TestFlushMarkerComplexityIsQuadratic(t *testing.T) {
	counts := map[int]int{}
	for _, n := range []int{2, 4} {
		r := newRig(t, n)
		r.run(500 * sim.Millisecond)
		res := r.checkpoint()
		counts[n] = res.MarkerMessages
		if want := n * (n - 1); res.MarkerMessages != want {
			t.Fatalf("n=%d markers = %d, want %d", n, res.MarkerMessages, want)
		}
		if want := 4 * n; res.CoordinatorMessages != want {
			t.Fatalf("n=%d coordinator msgs = %d, want %d", n, res.CoordinatorMessages, want)
		}
	}
	// 2 -> 4 nodes: coordinator messages double, markers grow 6x.
	if counts[4] != 6*counts[2] {
		t.Fatalf("marker growth %d -> %d not quadratic", counts[2], counts[4])
	}
}

func TestFlushDrainsInFlightData(t *testing.T) {
	// The checkpoint must not start saving until channels are empty; we
	// verify by checking stream integrity immediately after resuming a
	// checkpoint taken mid-burst (a lost in-flight chunk would corrupt
	// the numbered stream since, unlike Cruz, nothing retransmits it
	// after the channel state is discarded by restart — here we at least
	// assert the live continuation is clean and positions are consistent).
	r := newRig(t, 3)
	r.run(300 * sim.Millisecond)
	res := r.checkpoint()
	if res.MaxFlush > res.Latency {
		t.Fatalf("flush %v exceeds total %v", res.MaxFlush, res.Latency)
	}
	r.run(500 * sim.Millisecond)
	for i, p := range r.progs {
		if p.Fault != "" {
			t.Fatalf("prog %d fault: %s", i, p.Fault)
		}
	}
}

// TestFlushJobsAtTheSameSeqCompleteIndependently: sequence numbers count
// per job, so two jobs checkpointed in the same event are both at seq 1
// and every reply must reach the checkpoint of its own pod's job. Matching
// by seq alone handed one job's replies to the other, and the result
// depended on map iteration order: one job, or neither, completed.
func TestFlushJobsAtTheSameSeqCompleteIndependently(t *testing.T) {
	r := newRig(t, 4)
	r.run(300 * sim.Millisecond)
	left := &Job{Name: "left", Members: r.job.Members[:2]}
	right := &Job{Name: "right", Members: r.job.Members[2:]}
	// A second round proves the first left neither job busy.
	for seq := 1; seq <= 2; seq++ {
		for i, res := range r.checkpointAll(left, right) {
			if res.Seq != seq || res.MarkerMessages != 2 || res.CoordinatorMessages != 8 {
				t.Errorf("job %d: seq %d, %d markers, %d coordinator messages; want seq %d, 2 and 8",
					i, res.Seq, res.MarkerMessages, res.CoordinatorMessages, seq)
			}
		}
		r.run(300 * sim.Millisecond)
	}
	for i, p := range r.progs {
		if p.Fault != "" {
			t.Fatalf("prog %d fault: %s", i, p.Fault)
		}
	}
}

// TestFlushCheckpointFailsFastOnDeadAgentConn is the regression test for
// a hang cruzvet's errdrop analyzer surfaced: the coordinator discarded
// the error from the fCheckpoint fan-out send, so a control conn that
// died after Connect left the op pending forever — done was never
// invoked and the job stayed busy. A dead conn must fail the checkpoint
// the same way a missing conn does.
func TestFlushCheckpointFailsFastOnDeadAgentConn(t *testing.T) {
	r := newRig(t, 2)
	r.run(100 * sim.Millisecond)
	// Kill one established control conn out from under the coordinator.
	fc, _ := r.coord.ep.Link(r.job.Members[0].Agent)
	fc.TCP().Destroy()
	var cerr error
	fired := false
	r.coord.Checkpoint(r.job, func(res *Result, err error) {
		cerr, fired = err, true
	})
	for i := 0; i < 100 && !fired; i++ {
		r.run(20 * sim.Millisecond)
	}
	if !fired {
		t.Fatal("checkpoint callback never fired: dead-conn send error was dropped")
	}
	if cerr == nil {
		t.Fatal("checkpoint reported success over a dead agent conn")
	}
	if !errors.Is(cerr, ErrAgent) {
		t.Fatalf("checkpoint error = %v, want ErrAgent", cerr)
	}
}

// TestFlushSaveChargesWhatCruzCharges: the flushing save pays what the
// Cruz agent's stop-and-copy save pays for the same pod — the flat walk,
// the in-kernel copy of every resident byte at core's CaptureBPS, and the
// image's encode at core's EncodeBPS — before the disk write, so E5
// compares the two protocols rather than two cost models. A one-pod job
// has no channel to drain, so the save is the whole local checkpoint
// after the (empty) flush.
func TestFlushSaveChargesWhatCruzCharges(t *testing.T) {
	r := newRig(t, 1)
	pod := r.pods[0]
	as := pod.Process(pod.VPIDs()[0]).Mem()
	const ballast = 16 << 20
	base, err := as.Alloc(ballast, "ballast")
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xa5}, mem.PageSize)
	for off := uint64(0); off < ballast; off += mem.PageSize {
		if err := as.Write(base+off, page); err != nil {
			t.Fatal(err)
		}
	}
	r.run(100 * sim.Millisecond)
	res := r.checkpoint()

	resident := int64(pod.ResidentPages()) * mem.PageSize
	image := int64(pod.Kernel().Disk().Stats.BytesWritten)
	want := core.CaptureCost +
		rateCost(resident, core.CaptureBPS) +
		rateCost(image, core.EncodeBPS) +
		kernel.DiskLatency + rateCost(image, kernel.DiskWriteBPS)
	if got := res.MaxLocal - res.MaxFlush; got != want {
		t.Fatalf("save took %v for %d resident bytes and a %d-byte image, want %v (capture %v, encode %v)",
			got, resident, image, want, rateCost(resident, core.CaptureBPS), rateCost(image, core.EncodeBPS))
	}
}

// TestFlushAgentPaysCruzMessageCost: an idle flushing agent handles a
// message after the Cruz agent's per-message cost, core.AgentMsgCost —
// not the coordinator's 20 µs it charged until the two agents' costs
// became one set of constants.
func TestFlushAgentPaysCruzMessageCost(t *testing.T) {
	r := newRig(t, 1)
	a := r.agents[0]
	const seq = 99
	sent := r.engine.Now()
	pod := r.pods[0].Name()
	a.onMsg(nil, &fWireMsg{Type: fMarker, Seq: seq, Pod: pod, FromPod: "peer"})
	for len(a.markers[podSeq{pod, seq}]) == 0 {
		if !r.engine.Step() {
			t.Fatal("engine ran dry before the marker was handled")
		}
	}
	if got := r.engine.Now().Sub(sent); got != core.AgentMsgCost {
		t.Fatalf("marker handled %v after arrival, want core.AgentMsgCost = %v", got, core.AgentMsgCost)
	}
}

// TestFlushRedialsADeadPeerConn: an agent whose cached connection to a
// peer died dials the peer afresh for its next marker. Reusing the dead
// connection lost the marker, so the peer drained forever, the checkpoint
// never completed, and both pods stayed stopped.
func TestFlushRedialsADeadPeerConn(t *testing.T) {
	r := newRig(t, 2)
	r.run(300 * sim.Millisecond)
	r.checkpoint()
	r.run(100 * sim.Millisecond)
	var dialed *tcpip.TCPConn
	for _, tc := range r.agents[0].kern.Stack().Conns() {
		if tc.RemoteAddr() == r.agents[1].Addr() {
			dialed = tc
		}
	}
	if dialed == nil {
		t.Fatal("agent 0 holds no connection to agent 1's control port")
	}
	dialed.Destroy()
	var cerr error
	fired := false
	r.coord.Checkpoint(r.job, func(_ *Result, err error) { cerr, fired = err, true })
	r.run(2 * sim.Second)
	if !fired || cerr != nil {
		t.Fatalf("checkpoint after the peer connection died: fired %v, err %v; want success", fired, cerr)
	}
	for i, pod := range r.pods {
		if pod.Stopped() {
			t.Errorf("pod %d still stopped", i)
		}
	}
}

// TestFlushConnectReportsARefusedAgent: Connect to a member whose agent
// port has no listener calls done exactly once, with the reset error.
func TestFlushConnectReportsARefusedAgent(t *testing.T) {
	r := newRig(t, 2)
	refused := tcpip.AddrPort{Addr: r.agents[1].Addr().Addr, Port: DefaultControlPort + 1}
	job := &Job{Name: "refused", Members: []Member{r.job.Members[0], {Pod: "chat-x", PodIP: podIP(1), Agent: refused}}}
	var errs []error
	r.coord.Connect(job, func(err error) { errs = append(errs, err) })
	r.run(100 * sim.Millisecond)
	if len(errs) != 1 || !errors.Is(errs[0], tcpip.ErrReset) {
		t.Fatalf("Connect to a port with no listener reported %v, want one ErrReset", errs)
	}
}

// TestFlushUndecodableFrameDropsConnection: a frame the coordinator
// cannot decode drops that agent's connection, and the next checkpoint
// fails with ErrAgent at once instead of running over it.
func TestFlushUndecodableFrameDropsConnection(t *testing.T) {
	r := newRig(t, 2)
	addr := r.agents[1].Addr()
	var coordEnd tcpip.AddrPort
	for _, tc := range r.coord.stack.Conns() {
		if tc.RemoteAddr() == addr {
			coordEnd = tc.LocalAddr()
		}
	}
	var agentEnd *tcpip.TCPConn
	for _, tc := range r.agents[1].kern.Stack().Conns() {
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
	r.run(50 * sim.Millisecond)
	var cerr error
	fired := false
	r.coord.Checkpoint(r.job, func(_ *Result, err error) { cerr, fired = err, true })
	r.run(10 * sim.Millisecond)
	if !fired || !errors.Is(cerr, ErrAgent) || !strings.Contains(cerr.Error(), "no connection to "+addr.String()) {
		t.Fatalf("checkpoint after the drop: fired %v, err %v; want ErrAgent naming no connection at once", fired, cerr)
	}
}

// TestFlushCheckpointsTwoPodsPerNode: a job of two pods on each of two
// nodes checkpoints like any other: 4 × 3 markers, every stream intact,
// nothing left stopped or open. An agent with one op per node answered
// its second pod "operation already in progress" and left the first
// stopped.
func TestFlushCheckpointsTwoPodsPerNode(t *testing.T) {
	r := newPodRig(t, 2, 2)
	r.run(300 * sim.Millisecond)
	res := r.checkpoint()
	if res.MarkerMessages != 12 || res.CoordinatorMessages != 16 {
		t.Fatalf("%d markers, %d coordinator messages; want 12 and 16", res.MarkerMessages, res.CoordinatorMessages)
	}
	sent := make([]uint64, len(r.progs))
	for i, p := range r.progs {
		sent[i] = p.SentB
	}
	r.run(500 * sim.Millisecond)
	for i, p := range r.progs {
		if p.SentB <= sent[i] || p.RecvB == 0 {
			t.Errorf("pod %d did not progress after the checkpoint", i)
		}
	}
	r.settled()
}

// TestFlushFailedCheckpointResumesItsMembers: a checkpoint that fails at
// the coordinator after member 0 stopped — its control link to member 1
// is gone — resumes member 0 through the continue it sends every member.
// Nothing stays stopped or open, and no agent keeps polling its drain.
// Member 0 used to stay stopped with its op open, re-polling every
// drainPoll for good.
func TestFlushFailedCheckpointResumesItsMembers(t *testing.T) {
	r := newRig(t, 2)
	r.run(300 * sim.Millisecond)
	fc, _ := r.coord.ep.Link(r.job.Members[1].Agent)
	fc.TCP().Destroy()
	var cerr error
	r.coord.Checkpoint(r.job, func(_ *Result, err error) { cerr = err })
	r.run(100 * sim.Millisecond)
	if !errors.Is(cerr, ErrAgent) {
		t.Fatalf("checkpoint over a dead link to member 1: %v, want ErrAgent", cerr)
	}
	r.settled()
	// With every pod stopped, only the daemons could keep the engine busy.
	for _, pod := range r.pods {
		pod.Stop(nil)
	}
	r.run(100 * sim.Millisecond)
	fired := r.engine.Fired()
	r.run(sim.Second)
	if n := r.engine.Fired() - fired; n > 100 {
		t.Fatalf("%d engine events in a virtual second with every pod stopped, want none to speak of", n)
	}
}

// TestFlushEarlyMarkerIsKeptForItsPod: a marker that reaches a node
// before its pod's request is kept for that pod alone. Pods a and b share
// node 0 and both checkpoint at seq 1, each in a job of its own under a
// coordinator of its own: a with e on node 2, b with d on node 1. b's
// request is held up on the wire until d's marker for b is in, then a's
// job checkpoints. The agent used to hand d's marker to a's op, the one
// at seq 1, so b's op never got it and b's job stalled.
func TestFlushEarlyMarkerIsKeptForItsPod(t *testing.T) {
	r := newPodRig(t, 3, 2)
	a, b, d, e := r.job.Members[0], r.job.Members[1], r.job.Members[3], r.job.Members[4]
	left := &Job{Name: "left", Members: []Member{a, e}}
	right := &Job{Name: "right", Members: []Member{b, d}}
	leftCoord := r.coordinator(4, left)
	r.run(200 * sim.Millisecond)

	node0 := r.agents[0]
	filter := node0.kern.Stack().Filter()
	coordAddr, _ := r.coord.stack.FirstAddr()
	held := filter.AddDropAddr(coordAddr)
	var rightRes, leftRes *Result
	var rightErr, leftErr error
	r.coord.Checkpoint(right, func(res *Result, err error) { rightRes, rightErr = res, err })
	early := podSeq{b.Pod, 1}
	for i := 0; i < 100 && len(node0.markers[early]) == 0; i++ {
		r.run(sim.Millisecond)
	}
	if len(node0.markers[early]) != 1 || node0.OpenOps() != 0 {
		t.Fatalf("node 0 holds %d markers for b and %d ops; want d's marker and no op yet",
			len(node0.markers[early]), node0.OpenOps())
	}
	leftCoord.Checkpoint(left, func(res *Result, err error) { leftRes, leftErr = res, err })
	for i := 0; i < 100 && leftRes == nil && leftErr == nil; i++ {
		r.run(10 * sim.Millisecond)
	}
	if leftErr != nil || leftRes == nil {
		t.Fatalf("a's job: %v, err %v; want it done", leftRes, leftErr)
	}
	if n := len(node0.markers[early]); n != 1 {
		t.Errorf("node 0 holds %d markers for b after a's job, want d's", n)
	}
	filter.RemoveRule(held)
	r.run(2 * sim.Second)
	if rightErr != nil || rightRes == nil || rightRes.MarkerMessages != 2 {
		t.Fatalf("b's job after its request got through: %+v, err %v; want done with 2 markers", rightRes, rightErr)
	}
	if leftRes.MarkerMessages != 2 || leftRes.Seq != 1 || rightRes.Seq != 1 {
		t.Fatalf("a's job: %+v; want seq 1 with 2 markers, as b's", leftRes)
	}
	r.settled()
}

// TestFlushLeaseFailsOnlyTheDeadMembersCheckpoint: two jobs on disjoint
// nodes under the coordinator's lease, checkpointed together just after
// node 1 goes silent. Its lease fails the checkpoint of the job with a
// member there, with core.ErrNodeFailed, and resumes that job's other
// member; the other job's checkpoint completes, as does its next one,
// and nothing is left stopped or open.
func TestFlushLeaseFailsOnlyTheDeadMembersCheckpoint(t *testing.T) {
	r := newRig(t, 4)
	left := &Job{Name: "left", Members: r.job.Members[:2]}
	right := &Job{Name: "right", Members: r.job.Members[2:]}
	r.coord.Watch(left)
	r.coord.Watch(right)
	r.run(300 * sim.Millisecond)
	r.sw.SetLinkDown(r.nics[1], true)
	var leftErr error
	leftDone := false
	r.coord.Checkpoint(left, func(_ *Result, err error) { leftErr, leftDone = err, true })
	r.checkpointAll(right)
	for i := 0; i < 50 && !leftDone; i++ {
		r.run(20 * sim.Millisecond)
	}
	if !errors.Is(leftErr, core.ErrNodeFailed) {
		t.Fatalf("checkpoint of the job on the silent node: done %v, err %v; want core.ErrNodeFailed", leftDone, leftErr)
	}
	if res := r.checkpointAll(right)[0]; res.Seq != 2 {
		t.Fatalf("the other job's next checkpoint is seq %d, want 2", res.Seq)
	}
	r.run(100 * sim.Millisecond)
	r.settled()
}
