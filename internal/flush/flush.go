// Package flush implements the channel-flushing coordinated checkpoint
// that MPVM, CoCheck, and LAM-MPI use (paper §2, §5.2) — the baseline
// Cruz improves on.
//
// Instead of saving TCP state and dropping in-flight packets, flushing
// protocols make the state of every communication channel empty before
// checkpointing: each node stops its application, then exchanges marker
// messages with EVERY other node carrying per-channel byte-stream
// positions, and drains its sockets (into a library-level buffer that
// becomes part of the checkpoint) until each channel has delivered
// everything sent before the peer's marker. Only then does the local
// state save begin.
//
// The cost Cruz eliminates is visible directly in this package: O(N²)
// marker messages per checkpoint versus Cruz's O(N), plus the drain
// latency on every node. The local save itself reuses internal/ckpt.
package flush

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"cruz/internal/ckpt"
	"cruz/internal/core"
	"cruz/internal/ctl"
	"cruz/internal/gobmemo"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// DefaultControlPort is the flushing agents' control port (distinct from
// the Cruz agents' port so both can coexist on a node for comparison
// benchmarks).
const DefaultControlPort = 7078

// Errors surfaced by the flushing protocol.
var (
	ErrUnknownPod = errors.New("flush: agent does not manage that pod")
	ErrBusy       = errors.New("flush: operation already in progress")
	ErrAgent      = errors.New("flush: agent reported failure")
	// errAborted fails an agent's op on a continue that comes before the
	// pod's save is done: the coordinator's op failed.
	errAborted = errors.New("flush: coordinator aborted the checkpoint")
)

// fMsgType discriminates protocol messages.
type fMsgType int

const (
	fCheckpoint fMsgType = iota + 1
	fMarker
	fDone
	fContinue
	fContinueDone
	fPing
	fPong
)

// memberInfo travels in the checkpoint request so agents can find each
// other for the all-to-all marker exchange.
type memberInfo struct {
	Pod   string
	PodIP tcpip.Addr
	Agent tcpip.AddrPort
}

// connPos is one channel marker entry: the sender's byte-stream position
// on the channel identified (from the receiver's point of view) by Tuple.
type connPos struct {
	Tuple tcpip.FourTuple
	Sent  uint64
}

// fWireMsg is the single message shape.
type fWireMsg struct {
	Type    fMsgType
	Seq     int
	Pod     string // the pod a request or marker is for, or a reply is from
	Err     string
	Members []memberInfo

	// Marker payload.
	FromPod   string
	Positions []connPos

	// Reporting.
	LocalDuration sim.Duration
	FlushDuration sim.Duration
	MarkerMsgs    int
	ImageBytes    int64
}

// fCodec encodes every flush message: bytes identical to a fresh gob
// encoder's, type descriptors built once per process.
var fCodec = gobmemo.New[fWireMsg]()

// fMsgCodec frames flush messages on a ctl.Endpoint: the gob encoding
// alone, with no trace context, on the foreground tier.
var fMsgCodec = ctl.Codec[*fWireMsg]{
	Encode: func(buf *bytes.Buffer, m *fWireMsg) ([][]byte, trace.SpanContext, ctl.Tier, error) {
		return nil, trace.SpanContext{}, ctl.TierForeground, fCodec.Encode(buf, m)
	},
	Decode: func(r ctl.PieceReader, _ trace.SpanContext) (*fWireMsg, error) {
		// A flush frame is copied bytes alone, so it arrives as one piece,
		// which gob's decoder copies what it keeps of.
		var m fWireMsg
		_, err := fCodec.Decode(r.Peek(r.Len()), &m)
		return &m, err
	},
}

// drainPoll is how often a flushing agent re-checks channel drain
// progress (DESIGN §5).
const drainPoll = 200 * sim.Microsecond

// Agent is the per-node daemon of the flushing baseline. Each pod's
// checkpoint in flight is one ctl.Op keyed by the pod's name.
type Agent struct {
	kern *kernel.Kernel
	cpu  ctl.Serializer
	tr   *trace.Tracer
	// onMsg takes any protocol message (from the coordinator or a peer
	// agent) and hands it to handle behind its receive cost.
	onMsg func(*ctl.Link[*fWireMsg], *fWireMsg)

	pods map[string]*zap.Pod
	// ep accepts the coordinator's and peers' connections and dials peers.
	ep  *ctl.Endpoint[*fWireMsg]
	ops *ctl.Table
	// markers holds the peer markers received for each pod's checkpoint,
	// whether or not that pod's request has come yet.
	markers map[podSeq][]*fWireMsg
}

// podSeq names one pod's checkpoint.
type podSeq struct {
	pod string
	seq int
}

// agentOp is one pod's checkpoint in flight: its ctl.Op's Data.
type agentOp struct {
	*ctl.Op
	pod        *zap.Pod
	conn       *ctl.Link[*fWireMsg]
	members    []memberInfo
	flushEnd   sim.Time
	markerSent int

	span  trace.Span // agent.checkpoint (cat "flush")
	phase trace.Span // the one in progress: quiesce, drain, capture, write, commit
}

// NewAgent starts a flushing agent on the node. It pays the Cruz agent's
// costs (core.AgentMsgCost, core.CaptureCost, core.CaptureBPS,
// core.EncodeBPS), so the comparison isolates protocol structure. Its
// images go to the node's disk and nowhere else: nothing restarts from
// them, and the node's checkpoint store belongs to Cruz.
func NewAgent(kern *kernel.Kernel) (*Agent, error) {
	a := &Agent{
		kern:    kern,
		cpu:     ctl.Serializer{Engine: kern.Engine()},
		tr:      trace.FromEngine(kern.Engine()),
		pods:    make(map[string]*zap.Pod),
		ops:     ctl.NewTable(kern.Engine()),
		markers: make(map[podSeq][]*fWireMsg),
	}
	a.onMsg = ctl.Deliver(&a.cpu, core.AgentMsgCost, a.handle)
	a.ep = ctl.NewEndpoint(kern.Stack(), fMsgCodec, a.onMsg)
	if err := a.ep.Listen(DefaultControlPort); err != nil {
		return nil, err
	}
	return a, nil
}

// Addr returns the agent's control endpoint.
func (a *Agent) Addr() tcpip.AddrPort { return a.ep.Addr() }

// Manage registers a pod.
func (a *Agent) Manage(pod *zap.Pod) { a.pods[pod.Name()] = pod }

// OpenOps returns the number of pod checkpoints in flight.
func (a *Agent) OpenOps() int { return a.ops.Len() }

// handle dispatches a received message whose turn has come.
func (a *Agent) handle(c *ctl.Link[*fWireMsg], m *fWireMsg) {
	switch m.Type {
	case fCheckpoint:
		a.startCheckpoint(c, m)
	case fMarker:
		a.tr.Instant(a.kern.Name(), "flush", "marker.recv", trace.Str("from", m.FromPod))
		k := podSeq{m.Pod, m.Seq}
		a.markers[k] = append(a.markers[k], m)
	case fContinue:
		a.handleContinue(m)
	case fPing:
		c.Send(&fWireMsg{Type: fPong})
	}
}

// startCheckpoint is the flushing agent's local sequence: stop the
// application, exchange markers all-to-all, drain channels, then save.
// Every failure, the coordinator's abort included, rolls back in OnFail.
func (a *Agent) startCheckpoint(c *ctl.Link[*fWireMsg], m *fWireMsg) {
	pod, ok := a.pods[m.Pod]
	if !ok || pod.Destroyed() {
		c.Send(&fWireMsg{Type: fDone, Seq: m.Seq, Pod: m.Pod, Err: ErrUnknownPod.Error()})
		return
	}
	o, err := a.ops.Begin("checkpoint", m.Pod, m.Seq)
	if err != nil {
		c.Send(&fWireMsg{Type: fDone, Seq: m.Seq, Pod: m.Pod, Err: ErrBusy.Error()})
		return
	}
	op := &agentOp{Op: o, pod: pod, conn: c, members: m.Members}
	o.Data = op
	o.Expect("save", m.Pod)
	o.OnFail(func(*ctl.Op, error) {
		if !pod.Destroyed() {
			pod.Resume()
		}
		op.phase.End(trace.Str("outcome", "aborted"))
		op.span.End(trace.Str("outcome", "aborted"))
	})
	o.OnFinish(func(*ctl.Op, error) { a.dropMarkers(m.Pod, m.Seq) })
	op.span = a.tr.Begin(a.kern.Name(), "flush", "agent.checkpoint",
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	op.phase = a.tr.Begin(a.kern.Name(), trace.PhaseCat, "quiesce", trace.Str("pod", m.Pod))

	pod.Stop(func() {
		if op.Aborted() {
			return
		}
		op.phase.End()
		op.phase = a.tr.Begin(a.kern.Name(), trace.PhaseCat, "drain",
			trace.Str("pod", op.Key), trace.Str("mode", "flush"))
		// Application stopped: emit this node's markers to every other
		// node (the all-to-all exchange; O(N²) cluster-wide).
		for _, mem := range op.members {
			if mem.Pod == op.Key {
				continue
			}
			// A peer this marker does not reach waits in drain for it.
			positions := a.positionsToward(pod, mem.PodIP)
			marker := &fWireMsg{Type: fMarker, Seq: op.Seq, Pod: mem.Pod, FromPod: op.Key, Positions: positions}
			if pc, err := a.ep.Dial(mem.Agent); err != nil || pc.Send(marker) != nil {
				continue
			}
			op.markerSent++
			a.tr.Instant(a.kern.Name(), "flush", "marker.send",
				trace.Str("to", mem.Pod), trace.Int("channels", int64(len(positions))))
		}
		a.pollDrain(op)
	})
}

// positionsToward collects the pod's send positions on channels whose
// peer is the given pod address.
func (a *Agent) positionsToward(pod *zap.Pod, peerIP tcpip.Addr) []connPos {
	var out []connPos
	for _, conn := range a.kern.Stack().Conns() {
		t := conn.Tuple()
		if t.Local.Addr != pod.IP() || t.Remote.Addr != peerIP {
			continue
		}
		sent, _ := conn.StreamProgress()
		// The receiver identifies the channel by its own tuple.
		out = append(out, connPos{
			Tuple: tcpip.FourTuple{Local: t.Remote, Remote: t.Local},
			Sent:  sent,
		})
	}
	return out
}

// dropMarkers forgets the pod's markers up to seq: its checkpoint at seq
// is over, and none before it can begin.
func (a *Agent) dropMarkers(pod string, seq int) {
	for k := range a.markers {
		if k.pod == pod && k.seq <= seq {
			delete(a.markers, k)
		}
	}
}

// pollDrain re-checks flush progress until every channel has delivered
// everything its sender emitted before stopping, then saves local state.
func (a *Agent) pollDrain(op *agentOp) {
	if op.Aborted() {
		return
	}
	markers := a.markers[podSeq{op.Key, op.Seq}]
	if len(markers) >= len(op.members)-1 && a.drained(markers) {
		op.flushEnd = a.kern.Engine().Now()
		op.phase.End(trace.Int("markers", int64(len(markers))))
		a.saveLocal(op)
		return
	}
	// Drain live socket data into library buffers so windows reopen and
	// remaining in-flight bytes can arrive.
	for _, conn := range a.kern.Stack().Conns() {
		if conn.Tuple().Local.Addr == op.pod.IP() {
			conn.DrainToAlt()
		}
	}
	a.kern.Engine().Schedule(drainPoll, func() { a.pollDrain(op) })
}

// drained reports whether all marker positions have been received.
func (a *Agent) drained(markers []*fWireMsg) bool {
	conns := a.kern.Stack().Conns()
	for _, m := range markers {
		for _, pos := range m.Positions {
			i := slices.IndexFunc(conns, func(c *tcpip.TCPConn) bool { return c.Tuple() == pos.Tuple })
			if i < 0 {
				return false
			}
			if _, rcvd := conns[i].StreamProgress(); rcvd < pos.Sent {
				return false
			}
		}
	}
	return true
}

// rateCost is the CPU time n bytes take at bps bytes per second.
func rateCost(n, bps int64) sim.Duration { return sim.Duration(n * int64(sim.Second) / bps) }

// saveLocal captures, encodes and writes the pod image, then reports
// done. Like the Cruz agent's stop-and-copy save, the capture window
// grows with the resident bytes copied and the image is encoded before
// it goes to disk. A local failure fails the op and reports it with done.
func (a *Agent) saveLocal(op *agentOp) {
	fail := func(err error) {
		op.Fail(err)
		op.conn.Send(&fWireMsg{Type: fDone, Seq: op.Seq, Pod: op.Key, Err: err.Error()})
	}
	op.phase = a.tr.Begin(a.kern.Name(), trace.PhaseCat, "capture",
		trace.Str("pod", op.Key))
	resident := int64(op.pod.ResidentPages()) * mem.PageSize
	a.cpu.Do(core.CaptureCost+rateCost(resident, core.CaptureBPS), func() {
		if op.Aborted() {
			return
		}
		img, err := ckpt.Capture(op.pod, op.Seq, ckpt.Options{})
		if err != nil {
			fail(err)
			return
		}
		op.phase.End(trace.Int("mem_bytes", img.MemoryBytes()))
		op.phase = a.tr.Begin(a.kern.Name(), trace.PhaseCat, "write",
			trace.Str("pod", op.Key))
		n, err := img.Size()
		if err != nil {
			fail(err)
			return
		}
		a.cpu.Do(rateCost(n, core.EncodeBPS), func() {
			a.kern.Disk().Write(n, func() {
				if op.Aborted() {
					return
				}
				op.phase.End(trace.Int("bytes", n))
				op.phase = a.tr.Begin(a.kern.Name(), trace.PhaseCat, "commit",
					trace.Str("pod", op.Key))
				op.Arrive("save", op.Key)
				op.conn.Send(&fWireMsg{Type: fDone, Seq: op.Seq, Pod: op.Key,
					LocalDuration: a.kern.Engine().Now().Sub(op.Started()), FlushDuration: op.flushEnd.Sub(op.Started()),
					MarkerMsgs: op.markerSent, ImageBytes: n})
			})
		})
	})
}

// handleContinue resumes the pod. A continue before the pod's save is
// done is the coordinator's abort, and rolls the op back; one for a pod
// with no op at its seq only closes that checkpoint's markers.
func (a *Agent) handleContinue(m *fWireMsg) {
	op := ctl.Find[agentOp](a.ops, m.Pod)
	switch {
	case op == nil || op.Seq != m.Seq:
		a.dropMarkers(m.Pod, m.Seq)
	case !op.Cleared("save"):
		op.Fail(errAborted)
	default:
		op.pod.Resume()
		op.phase.End()
		op.span.End()
		op.Finish()
		op.conn.Send(&fWireMsg{Type: fContinueDone, Seq: m.Seq, Pod: op.Key, LocalDuration: core.AgentMsgCost})
	}
}

// Member describes one job member for the flushing coordinator.
type Member struct {
	Pod   string
	PodIP tcpip.Addr
	Agent tcpip.AddrPort
}

// Job is a distributed application under the flushing protocol.
type Job struct {
	Name    string
	Members []Member
}

// Result reports a flushing checkpoint's costs.
type Result struct {
	Seq int
	// Latency is first request to last done (comparable to Cruz's
	// Fig. 5(a) metric).
	Latency      sim.Duration
	CycleLatency sim.Duration
	// MaxFlush is the slowest node's marker-exchange-plus-drain phase —
	// the cost Cruz eliminates entirely.
	MaxFlush sim.Duration
	MaxLocal sim.Duration
	// CoordinatorMessages counts coordinator<->agent messages; MarkerMessages
	// counts agent<->agent marker traffic (the O(N²) term).
	CoordinatorMessages int
	MarkerMessages      int
}

// Coordinator drives flushing checkpoints: one ctl.Op per job in
// flight, keyed by the job's name, waiting first on every member's done
// and then on every member's continue-done. An op that fails sends every
// member the continue that resumes its pod. Watch leases a job's agents.
type Coordinator struct {
	stack *tcpip.Stack
	cpu   ctl.Serializer
	tr    *trace.Tracer
	ep    *ctl.Endpoint[*fWireMsg] // the connections to the agents
	ops   *ctl.Table
	lease *ctl.Lease
	seq   map[string]int

	// The lane's work besides the messages received, each kind charged
	// core.CoordinatorMsgCost: the sends, and the pings, which all send
	// pingMsg.
	sends   *ctl.Inbox[outbound]
	pings   *ctl.Inbox[*ctl.Link[*fWireMsg]]
	pingMsg fWireMsg
}

// checkpointOp is one job's checkpoint in flight: its ctl.Op's Data.
type checkpointOp struct {
	job *Job
	res Result
}

// NewCoordinator creates a flushing coordinator on the given stack. It
// pays core.CoordinatorMsgCost per message and leases on core's timings.
func NewCoordinator(stack *tcpip.Stack) *Coordinator {
	c := &Coordinator{
		stack: stack,
		cpu:   ctl.Serializer{Engine: stack.Engine()},
		tr:    trace.FromEngine(stack.Engine()),
		ops:   ctl.NewTable(stack.Engine()),
		seq:   make(map[string]int),

		pingMsg: fWireMsg{Type: fPing},
	}
	c.sends = ctl.NewInbox(&c.cpu, c.sendNow)
	c.pings = ctl.NewInbox(&c.cpu, func(fc *ctl.Link[*fWireMsg]) { fc.Send(&c.pingMsg) })
	c.ep = ctl.NewEndpoint(stack, fMsgCodec, ctl.Deliver(&c.cpu, core.CoordinatorMsgCost, c.onMsg))
	c.lease = ctl.NewLease(stack.Engine(), core.DefaultHeartbeatEvery, core.DefaultLeaseTimeout, c.ping, c.agentDied)
	return c
}

// OpenOps returns the number of checkpoints in flight.
func (c *Coordinator) OpenOps() int { return c.ops.Len() }

// Connect dials all agents of the job, invoking done when all are up (or
// with the first error).
func (c *Coordinator) Connect(job *Job, done func(error)) {
	addrs := make([]tcpip.AddrPort, len(job.Members))
	for i, m := range job.Members {
		addrs[i] = m.Agent
	}
	c.ep.Connect(addrs, done)
}

// Watch puts the job's member agents under the coordinator's lease.
func (c *Coordinator) Watch(job *Job) {
	for _, m := range job.Members {
		c.lease.Register(m.Agent)
	}
}

// ping is the lease's ping hook: a ping to a live agent, if its link is up.
func (c *Coordinator) ping(addr tcpip.AddrPort) {
	if fc, ok := c.ep.Link(addr); ok {
		c.pings.Do(core.CoordinatorMsgCost, fc)
	}
}

// agentDied is the lease's verdict on a silent agent: every checkpoint
// with a member on it fails, and its OnFail resumes the other members.
func (c *Coordinator) agentDied(addr tcpip.AddrPort) {
	onIt := func(m Member) bool { return m.Agent == addr }
	c.ops.Each(func(op *ctl.Op) {
		if slices.ContainsFunc(op.Data.(*checkpointOp).job.Members, onIt) {
			op.Fail(fmt.Errorf("%w: agent %s", core.ErrNodeFailed, addr))
		}
	})
}

// Checkpoint runs one flushing coordinated checkpoint. One of a job with a
// member on a dead agent fails at once.
func (c *Coordinator) Checkpoint(job *Job, done func(*Result, error)) {
	if i := slices.IndexFunc(job.Members, func(m Member) bool { return c.lease.Dead(m.Agent) }); i >= 0 {
		done(nil, fmt.Errorf("%w: agent %s", core.ErrNodeFailed, job.Members[i].Agent))
		return
	}
	seq := c.seq[job.Name] + 1
	op, err := c.ops.Begin("checkpoint", job.Name, seq)
	if err != nil {
		done(nil, ErrBusy)
		return
	}
	c.seq[job.Name] = seq
	cp := &checkpointOp{job: job, res: Result{Seq: seq}}
	op.Data = cp
	span := c.tr.Begin(c.stack.Name(), "flush", "checkpoint",
		trace.Str("job", job.Name), trace.Int("seq", int64(seq)),
		trace.Int("members", int64(len(job.Members))))
	op.OnFail(func(op *ctl.Op, _ error) { c.continueAll(op) })
	op.OnFinish(func(op *ctl.Op, err error) {
		if err != nil {
			span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		cp.res.CycleLatency = c.stack.Engine().Now().Sub(op.Started())
		span.End(trace.Int("marker_msgs", int64(cp.res.MarkerMessages)))
		done(&cp.res, nil)
	})
	members := make([]memberInfo, len(job.Members))
	for i, m := range job.Members {
		members[i] = memberInfo(m)
		op.Expect("done", m.Pod)
	}
	for _, m := range job.Members {
		c.send(op, m, &fWireMsg{Type: fCheckpoint, Seq: seq, Pod: m.Pod, Members: members})
	}
}

// continueAll sends every member the continue that ends its pod's op:
// the commit once all are done, or the abort if the op failed first.
func (c *Coordinator) continueAll(op *ctl.Op) {
	for _, mem := range op.Data.(*checkpointOp).job.Members {
		c.send(op, mem, &fWireMsg{Type: fContinue, Seq: op.Seq, Pod: mem.Pod})
	}
}

// send sends m to a member's agent in the next message slot; a missing
// or dead conn fails the op. A failed op sends only its continues.
func (c *Coordinator) send(op *ctl.Op, mem Member, m *fWireMsg) {
	c.sends.Do(core.CoordinatorMsgCost, outbound{op, mem, m})
}

// outbound is one message send queued.
type outbound struct {
	op  *ctl.Op
	mem Member
	m   *fWireMsg
}

// sendNow sends a queued message whose turn has come.
func (c *Coordinator) sendNow(o outbound) {
	if o.op.Aborted() && o.m.Type != fContinue {
		return
	}
	fc, ok := c.ep.Link(o.mem.Agent)
	if !ok {
		o.op.Fail(fmt.Errorf("%w: no connection to %s", ErrAgent, o.mem.Agent))
		return
	}
	o.op.Data.(*checkpointOp).res.CoordinatorMessages++
	if err := fc.Send(o.m); err != nil {
		o.op.Fail(fmt.Errorf("%w: send to %s: %v", ErrAgent, o.mem.Agent, err))
	}
}

// onMsg handles an agent's reply once the lane has charged its receive
// cost. Seqs count per job, so two jobs can be at the same seq at once: a
// reply belongs to the checkpoint at its seq whose job lists its pod.
func (c *Coordinator) onMsg(fc *ctl.Link[*fWireMsg], m *fWireMsg) {
	if m.Type == fPong {
		c.lease.Pong(fc.TCP().RemoteAddr())
		return
	}
	var op *ctl.Op
	sender := func(mem Member) bool { return mem.Pod == m.Pod }
	c.ops.Each(func(o *ctl.Op) {
		if o.Seq == m.Seq && slices.ContainsFunc(o.Data.(*checkpointOp).job.Members, sender) {
			op = o
		}
	})
	if op == nil {
		return
	}
	if m.Err != "" {
		op.Fail(fmt.Errorf("%w: %s: %s", ErrAgent, m.Pod, m.Err))
		return
	}
	cp := op.Data.(*checkpointOp)
	switch m.Type {
	case fDone:
		if !op.Arrive("done", m.Pod) {
			return
		}
		cp.res.CoordinatorMessages++
		cp.res.MarkerMessages += m.MarkerMsgs
		cp.res.MaxFlush = max(cp.res.MaxFlush, m.FlushDuration)
		cp.res.MaxLocal = max(cp.res.MaxLocal, m.LocalDuration)
		if op.Cleared("done") {
			cp.res.Latency = c.stack.Engine().Now().Sub(op.Started())
			for _, mem := range cp.job.Members {
				op.Expect("continue", mem.Pod)
			}
			c.continueAll(op)
		}
	case fContinueDone:
		if op.Arrive("continue", m.Pod) {
			cp.res.CoordinatorMessages++
			if op.Cleared("continue") {
				op.Finish()
			}
		}
	}
}
