package core

import (
	"errors"
	"fmt"
	"slices"

	"cruz/internal/coord"
	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Errors surfaced by the coordinator.
var (
	ErrOpInProgress = errors.New("core: an operation is already in progress for this job")
	ErrAborted      = errors.New("core: operation aborted")
	ErrAgentFailed  = errors.New("core: agent reported failure")
	ErrNotConnected = errors.New("core: agent connection not established")
)

// Member is one piece of a distributed job: the pod and the agent that
// manages it. The paper uses "node" and "pod" interchangeably (§5).
type Member struct {
	Pod   string
	Agent tcpip.AddrPort
}

// Job names a distributed application: a set of pods across nodes that
// must checkpoint and restart consistently.
type Job struct {
	Name    string
	Members []Member
}

// The coordinator daemon's costs and membership timings, calibrated to
// the paper's testbed (DESIGN §5).
const (
	// CoordinatorMsgCost is the CPU cost to build/send or receive/process
	// one control message. The coordinator is single-threaded, so fan-out
	// to N agents serializes — the origin of the per-node coordination
	// overhead slope in Fig. 5(b).
	CoordinatorMsgCost = 20 * sim.Microsecond
	// DefaultHeartbeatEvery is the membership ping period once a job is
	// watched.
	DefaultHeartbeatEvery = 100 * sim.Millisecond
	// DefaultLeaseTimeout declares a node failed after this much pong
	// silence: several heartbeats, so one delayed pong never trips
	// failure detection.
	DefaultLeaseTimeout = 350 * sim.Millisecond
)

// PrecopyConfig tunes pre-copy checkpointing: the agent streams the
// pod's memory in live rounds — round 0 the whole image, each later
// round only the pages dirtied since the previous round — and stops the
// pod just for the final residual set. Freeze time then scales with the
// residual dirty set, not the image size.
type PrecopyConfig struct {
	// MaxRounds caps the live rounds (0 disables pre-copy entirely).
	MaxRounds int
	// DirtyThresholdPages ends the rounds as soon as the live dirty set
	// is at most this many pages: the residual stop-and-copy of that
	// little memory is cheaper than another round.
	DirtyThresholdPages int
	// MinRoundGain is the minimum fractional shrink of the dirty set a
	// round must achieve for another round to be worth taking. A
	// workload writing faster than the disk drains never converges;
	// this detects that and stops (0 = no check).
	MinRoundGain float64
}

// CheckpointOptions selects the protocol variant.
type CheckpointOptions struct {
	// Optimized selects the Fig. 4 early-continue protocol.
	Optimized bool
	// Incremental saves only pages dirtied since the previous capture.
	Incremental bool
	// COW selects the §5.2 copy-on-write optimization: pods resume as
	// soon as every node has *captured* its state, overlapping the image
	// writes with application execution.
	COW bool
	// Dedup stores the checkpoint content-addressed: a small manifest
	// plus refcounted page chunks, writing only chunks the store has
	// never seen. Captures record page hashes (cached; only pages
	// written since the last hashing capture cost a recompute).
	Dedup bool
	// Pipeline splits the agent's image write into segments, encoding
	// segment k on the CPU while segment k-1 is on the disk.
	Pipeline bool
	// Replicas streams each committed image to this many peer nodes
	// after the local save, off the critical path — the recovery
	// prerequisite that replaces manual image copying.
	Replicas int
	// Precopy, when MaxRounds > 0, streams the image in live rounds
	// before the stop-and-copy, shrinking the freeze to the residual
	// dirty set. The rounds are abortable background work: a failure
	// mid-round aborts the whole epoch and the agents discard the
	// partial round chain — the committed sequence never moves.
	Precopy PrecopyConfig
}

// PodReport is one agent's reported local timings.
type PodReport struct {
	Pod           string
	LocalDuration sim.Duration
	ImageBytes    int64
}

// CheckpointResult carries the measurements the paper's evaluation
// reports.
type CheckpointResult struct {
	Seq int
	// Latency is Fig. 5(a)'s metric: first <checkpoint> sent to last
	// <done> received at the coordinator.
	Latency sim.Duration
	// CycleLatency extends to the last <continue-done>.
	CycleLatency sim.Duration
	// MaxLocalCheckpoint and MaxLocalContinue are the slowest agents'
	// local phases.
	MaxLocalCheckpoint sim.Duration
	MaxLocalContinue   sim.Duration
	// MaxBlocked and MinBlocked bound how long pods were actually
	// frozen — the application-visible disruption. The Fig. 4
	// optimization shrinks MinBlocked (a fast node no longer waits for
	// the slowest save); COW shrinks both.
	MaxBlocked sim.Duration
	MinBlocked sim.Duration
	// Overhead is Fig. 5(b)'s metric: CycleLatency minus the global cost
	// of the local operations (their max across nodes, since they run in
	// parallel).
	Overhead sim.Duration
	// Messages counts control messages sent and received by the
	// coordinator for this operation — 4N for the blocking protocol,
	// 5N optimized: O(N), versus O(N²) for flushing baselines.
	Messages int
	// TotalImageBytes sums the agents' image sizes.
	TotalImageBytes int64
	// PerPod holds each agent's report.
	PerPod []PodReport
}

// RestartResult mirrors CheckpointResult for coordinated restart.
type RestartResult struct {
	Seq              int
	Latency          sim.Duration
	CycleLatency     sim.Duration
	MaxLocalRestore  sim.Duration
	MaxLocalContinue sim.Duration
	Overhead         sim.Duration
	Messages         int
	PerPod           []PodReport
}

// Coordinator drives the global protocol of Fig. 2 / Fig. 4, plus the
// membership and recovery extension: heartbeat/lease failure detection
// over registered nodes and automatic restart of watched jobs. It runs
// as a daemon on its own node (distinct from the application nodes, as
// in the paper's experiments).
type Coordinator struct {
	stack *tcpip.Stack
	cpu   ctl.Serializer
	tr    *trace.Tracer
	// The lane's work besides the messages received, each kind charged
	// CoordinatorMsgCost: the fan-outs' requests, the sends of sendOrFail
	// and the pings, which all send pingMsg.
	fans    *ctl.Inbox[fanned]
	sends   *ctl.Inbox[outbound]
	pings   *ctl.Inbox[*ctl.Link[*wireMsg]]
	pingMsg wireMsg
	// groupSize, when > 1, makes the coordination a two-level tree
	// (SetGroupSize).
	groupSize int

	// ep holds the control connections to the agents, one per agent.
	ep *ctl.Endpoint[*wireMsg]
	// table holds one rootOp per job with an operation in flight, under
	// the job's name.
	table *ctl.Table

	// committed tracks the last globally committed checkpoint per job —
	// the atomicity record of the two-phase commit.
	committed map[string]int
	nextSeq   map[string]int

	// Membership and recovery state (recovery.go).
	nodes      []*nodeInfo
	nodeByAddr map[tcpip.AddrPort]*nodeInfo
	watches    []*watch
	lease      *ctl.Lease
	// placed records where every committed (pod, seq) image lives — fed by
	// commits, <replicated> reports, completed fetches and migrations, and
	// read through sources and by Migrate, for round 0's base.
	placed map[string]map[int]placement
}

// rootOp is the coordinator's one op record: a checkpoint, restart,
// recovery or migration of a job, registered under the job's name, so a
// job runs one operation at a time by construction. The lifecycle lives in
// the embedded ctl.Op — wait-sets "done", "disabled" and "cont" for the
// two-phase exchange, a migration's included, and "fetch" in front of a
// recovery's — the measurements here.
type rootOp struct {
	*ctl.Op
	job  *Job
	span trace.Span
	// msgBase is the message count on the op's connections when its
	// exchange began.
	msgBase int

	// The two-phase exchange of a checkpoint, a restart or a recovery's
	// restart: when its fan-out began, who the root speaks to (planDests:
	// every member, or one leader per group) and what the replies measured.
	t0         sim.Time
	dests      []dest
	opts       CheckpointOptions
	doneAt     sim.Time
	maxLocal   sim.Duration
	maxCont    sim.Duration
	maxBlocked sim.Duration
	minBlocked sim.Duration
	reports    []PodReport

	rec *recovery  // the plan in front of a recovery's restart (recovery.go)
	mig *migration // a migration's parties and report (migrate.go)
}

// involves reports whether the op depends on the node at addr: a member
// lives there, a recovery is moving a pod onto it, or it is a migration's
// destination. Any member's node counts for every kind, a migration
// included: a job that lost a member is about to roll back as a whole. A
// migration's source stays a member until the op ends, so the op involves
// it until its continue-done arrives.
func (op *rootOp) involves(addr tcpip.AddrPort) bool {
	for _, m := range op.job.Members {
		if m.Agent == addr {
			return true
		}
	}
	if op.rec != nil {
		for _, a := range op.rec.assign {
			if a == addr {
				return true
			}
		}
	}
	return op.mig != nil && op.mig.dst == addr
}

// dest is one addressee of a fan-out: a member, addressed by Pod, or —
// when relay is set — the leader of the group that relay lists, addressed
// by Job. A group with no live member has a relay list and no agent.
type dest struct {
	Member
	relay []GroupMember
}

// NewCoordinator creates a coordinator on the given node's stack.
func NewCoordinator(stack *tcpip.Stack) *Coordinator {
	c := &Coordinator{
		stack:      stack,
		cpu:        ctl.Serializer{Engine: stack.Engine()},
		tr:         trace.FromEngine(stack.Engine()),
		table:      ctl.NewTable(stack.Engine()),
		committed:  make(map[string]int),
		nextSeq:    make(map[string]int),
		nodeByAddr: make(map[tcpip.AddrPort]*nodeInfo),
		placed:     make(map[string]map[int]placement),
		pingMsg:    wireMsg{Type: msgPing},
	}
	c.fans = ctl.NewInbox(&c.cpu, c.fanTo)
	c.sends = ctl.NewInbox(&c.cpu, c.sendNow)
	c.pings = ctl.NewInbox(&c.cpu, func(cc *ctl.Link[*wireMsg]) { cc.Send(&c.pingMsg) })
	c.ep = ctl.NewEndpoint(stack, msgCodec, ctl.Deliver(&c.cpu, CoordinatorMsgCost, c.onMsg))
	c.lease = ctl.NewLease(stack.Engine(), DefaultHeartbeatEvery, DefaultLeaseTimeout, c.ping, c.declareFailed)
	return c
}

// SetGroupSize enables hierarchical (two-level tree) coordination when
// size > 1: members partition into contiguous groups of this size, and the
// root exchanges aggregate messages with each group's deterministic
// leader instead of per-pod messages with every member. The 2PC decision
// logic is unchanged — the root still tracks every pod's vote, leaders
// only batch the transport — so commit/abort outcomes are identical to the
// flat fan-out. 0 or 1 keeps flat. A good value is coord.GroupSizeFor(N)
// ≈ √N.
func (c *Coordinator) SetGroupSize(size int) { c.groupSize = size }

// CommittedSeq returns the last committed checkpoint sequence for a job.
func (c *Coordinator) CommittedSeq(job string) (int, bool) {
	seq, ok := c.committed[job]
	return seq, ok
}

// OpenOps returns the number of in-flight coordinated operations — the
// leak check recovery tests rely on.
func (c *Coordinator) OpenOps() int { return c.table.Len() }

// agents returns the distinct agents hosting the job's members, in member
// order.
func (j *Job) agents() []tcpip.AddrPort {
	addrs := make([]tcpip.AddrPort, 0, len(j.Members))
	for _, m := range j.Members {
		if !slices.Contains(addrs, m.Agent) {
			addrs = append(addrs, m.Agent)
		}
	}
	return addrs
}

// Connect establishes control connections to every agent of the job,
// invoking done when all are up (or with the first dial error). It refuses
// a job with a member on a node RegisterNode never named: the heartbeat
// lease is the one judge of whether a member's node is alive.
func (c *Coordinator) Connect(job *Job, done func(error)) {
	for _, m := range job.Members {
		if err := c.registered(m.Agent); err != nil {
			done(fmt.Errorf("pod %s: %w", m.Pod, err))
			return
		}
	}
	c.ep.Connect(job.agents(), done)
}

// registered fails unless addr is a node the membership layer knows.
func (c *Coordinator) registered(addr tcpip.AddrPort) error {
	if c.nodeByAddr[addr] == nil {
		return fmt.Errorf("%w: %s is not a registered node", ErrNotConnected, addrKey(addr))
	}
	return nil
}

// sendOrFail queues m for addr on the serialized daemon CPU. When its turn
// comes the op must still be active, and fails if addr cannot be reached.
func (c *Coordinator) sendOrFail(op *rootOp, addr tcpip.AddrPort, m *wireMsg) {
	c.sends.Do(CoordinatorMsgCost, outbound{op, addr, m})
}

// outbound is one message sendOrFail queued.
type outbound struct {
	op   *rootOp
	addr tcpip.AddrPort
	m    *wireMsg
}

// sendNow sends a queued message whose turn has come.
func (c *Coordinator) sendNow(o outbound) {
	if !o.op.Active() {
		return
	}
	cc, ok := c.ep.Link(o.addr)
	if !ok {
		o.op.Fail(fmt.Errorf("%w: %s", ErrNotConnected, o.addr))
	} else if err := cc.Send(o.m); err != nil {
		o.op.Fail(err)
	}
}

// msgCount sums the message counters of the connections to addrs (which
// are distinct).
func (c *Coordinator) msgCount(addrs []tcpip.AddrPort) int {
	n := 0
	for _, addr := range addrs {
		if cc, ok := c.ep.Link(addr); ok {
			n += cc.Sent + cc.Received
		}
	}
	return n
}

// begin registers the job's one operation, rejecting overlap with any
// other on it. Whatever the kind, failure tells every agent the op opened
// something on to roll back, before the finish hook reports the error.
func (c *Coordinator) begin(kind string, job *Job, seq int) (*rootOp, error) {
	o, err := c.table.Begin(kind, job.Name, seq)
	if err != nil {
		return nil, ErrOpInProgress
	}
	op := &rootOp{Op: o, job: job}
	o.Data = op
	o.OnFail(func(*ctl.Op, error) {
		c.fanOut(op, op.abortDests(), false, wireMsg{Type: msgAbort, Seq: op.Seq})
	})
	return op, nil
}

// takeSeqs begins an op that saves images. Its pre-copy epoch consumes a
// block of sequence numbers: the live rounds chain through (seq-rounds,
// seq) and only the residual at seq is ever committed, so an aborted epoch
// leaves a hole, never a dangling base. The block is taken only if the op
// began.
func (c *Coordinator) takeSeqs(kind string, job *Job, rounds int) (*rootOp, error) {
	seq := c.nextSeq[job.Name] + max(rounds, 0) + 1
	op, err := c.begin(kind, job, seq)
	if err == nil {
		c.nextSeq[job.Name] = seq
	}
	return op, err
}

// abortDests is who must roll back when the op fails. A migration before
// its commit point (the destination's done): its source, which
// rolls the pre-copy epoch back and resumes the pod, and its destination,
// which discards the adopted rounds. From the commit point on, nobody: the
// pod runs on the destination, and the source's continue, already sent,
// destroys its copy instead. A two-phase exchange:
// every member, directly even under the hierarchical tree — abort is the
// exceptional path, and sending it point-to-point preserves the flat
// protocol's semantics when the failed party is a leader — plus each
// leader, by job, so its relay state closes. A recovery that has not
// reached its restart has opened nothing an <abort> closes.
func (op *rootOp) abortDests() []dest {
	if mig := op.mig; mig != nil {
		if op.Cleared("done") {
			return nil
		}
		return []dest{{Member: Member{Pod: mig.pod, Agent: mig.src}}, {Member: Member{Pod: mig.pod, Agent: mig.dst}}}
	}
	if op.dests == nil {
		return nil
	}
	to := make([]dest, 0, len(op.job.Members)+len(op.dests))
	for _, m := range op.job.Members {
		to = append(to, dest{Member: m})
	}
	for _, d := range op.dests {
		if d.relay != nil {
			to = append(to, d)
		}
	}
	return to
}

// planDests decides who the root speaks to for one op — the only place
// the flat fan-out and the tree differ: every member, or (groupSize > 1)
// the leader of each group. Group boundaries depend only on member order
// and groupSize; liveness picks each group's leader when the op begins,
// so a lease-expired leader is replaced by the next live member of its
// group — deterministically, with no election traffic.
func (c *Coordinator) planDests(job *Job) []dest {
	if c.groupSize <= 1 || len(job.Members) <= 1 {
		dests := make([]dest, len(job.Members))
		for i, m := range job.Members {
			dests[i].Member = m
		}
		return dests
	}
	groups := coord.Plan(len(job.Members), c.groupSize, func(i int) bool {
		return !c.lease.Dead(job.Members[i].Agent)
	})
	dests := make([]dest, len(groups))
	for i, g := range groups {
		if g.Leader >= 0 {
			dests[i].Member = job.Members[g.Leader]
		}
		for _, idx := range g.Members {
			m := job.Members[idx]
			dests[i].relay = append(dests[i].relay, GroupMember{Pod: m.Pod, IP: m.Agent.Addr, Port: m.Agent.Port})
		}
	}
	return dests
}

// fanOut sends req to each destination in turn on the serialized daemon
// CPU: by Pod to a member, by Job to a leader. The start of an op
// (checkpoint, restart) hands each leader its relay list and must reach
// everyone — an unreachable destination, or a group with no live member
// to lead it, fails the op as the first dead member's connection fails
// the flat fan-out; <continue> and <abort> skip whoever is gone.
func (c *Coordinator) fanOut(op *rootOp, dests []dest, start bool, req wireMsg) {
	for _, d := range dests {
		if d.relay != nil && d.Agent == (tcpip.AddrPort{}) {
			if start {
				op.Fail(fmt.Errorf("%w: group of %s has no live member", ErrNotConnected, op.job.Name))
				return
			}
			continue
		}
		c.fans.Do(CoordinatorMsgCost, fanned{op, d, start, &req})
	}
}

// fanned is one destination of a fan-out waiting for its turn on the
// lane, with the request the whole fan-out shares.
type fanned struct {
	op    *rootOp
	d     dest
	start bool
	req   *wireMsg
}

// fanTo sends a fan-out's request to one destination.
func (c *Coordinator) fanTo(f fanned) {
	op, d, start := f.op, f.d, f.start
	// Never open an op on a node the membership layer has declared
	// dead: its downed link sent no reset, so the connection still
	// reads established and the request would vanish unanswered.
	if n := c.nodeByAddr[d.Agent]; start && c.lease.Dead(n.addr) {
		op.Fail(fmt.Errorf("%w: %s", ErrNodeFailed, n.name))
		return
	}
	m := *f.req
	m.ctx = op.span.Context()
	if d.relay == nil {
		m.Pod = d.Pod
	} else {
		m.Job = op.job.Name
		if start {
			m.Group = d.relay
		}
	}
	cc, ok := c.ep.Link(d.Agent)
	if !ok {
		if start {
			op.Fail(fmt.Errorf("%w: %s", ErrNotConnected, d.Agent))
		}
	} else if err := cc.Send(&m); err != nil && start {
		op.Fail(err)
	}
}

// start begins the op's two-phase exchange: it plans the destinations and
// fans the opening request out to them.
func (c *Coordinator) start(op *rootOp, req wireMsg) {
	op.t0 = c.stack.Engine().Now()
	op.msgBase = c.msgCount(op.job.agents())
	op.dests = c.planDests(op.job)
	c.fanOut(op, op.dests, true, req)
}

// Checkpoint runs one coordinated checkpoint of the job, invoking done
// with the result.
func (c *Coordinator) Checkpoint(job *Job, opts CheckpointOptions, done func(*CheckpointResult, error)) {
	op, err := c.takeSeqs("checkpoint", job, opts.Precopy.MaxRounds)
	if err != nil {
		done(nil, err)
		return
	}
	seq := op.Seq
	op.opts = opts
	// The op root: every agent span, phase, replication exchange, and
	// coordinator instant of this checkpoint hangs off this context.
	op.span = c.tr.BeginOp(c.stack.Name(), "core", "checkpoint",
		trace.Str("job", job.Name), trace.Int("seq", int64(seq)),
		trace.Int("members", int64(len(job.Members))))
	op.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			op.span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		c.committed[job.Name] = seq
		// Each member's own agent holds what it just committed.
		for _, m := range job.Members {
			c.addHolder(m.Pod, seq, m.Agent)
		}
		c.tr.InstantCtx(op.span.Context(), c.stack.Name(), "core", "commit",
			trace.Str("job", job.Name), trace.Int("seq", int64(seq)))
		op.span.End()
		now := c.stack.Engine().Now()
		res := &CheckpointResult{
			Seq:                seq,
			Latency:            op.doneAt.Sub(op.t0),
			CycleLatency:       now.Sub(op.t0),
			MaxLocalCheckpoint: op.maxLocal,
			MaxLocalContinue:   op.maxCont,
			MaxBlocked:         op.maxBlocked,
			MinBlocked:         op.minBlocked,
			Messages:           c.msgCount(job.agents()) - op.msgBase,
			PerPod:             op.reports,
		}
		res.Overhead = res.CycleLatency - res.MaxLocalCheckpoint - res.MaxLocalContinue
		for _, r := range op.reports {
			res.TotalImageBytes += r.ImageBytes
		}
		done(res, nil)
	})

	// Step 1: send <checkpoint> to all agents (serialized daemon CPU).
	// The root's wait-sets always track every pod — under the tree the
	// leaders batch the transport, never the decision. Only Fig. 4 and
	// copy-on-write agents report <comm-disabled>.
	for _, m := range job.Members {
		op.Expect("done", m.Pod)
		op.Expect("cont", m.Pod)
		if opts.Optimized || opts.COW {
			op.Expect("disabled", m.Pod)
		}
	}
	c.start(op, wireMsg{
		Type:                  msgCheckpoint,
		Seq:                   seq,
		Incremental:           opts.Incremental,
		Optimized:             opts.Optimized,
		COW:                   opts.COW,
		Dedup:                 opts.Dedup,
		Pipeline:              opts.Pipeline,
		Replicas:              opts.Replicas,
		PrecopyRounds:         opts.Precopy.MaxRounds,
		PrecopyThresholdPages: opts.Precopy.DirtyThresholdPages,
		PrecopyMinGain:        opts.Precopy.MinRoundGain,
	})
}

// Restart runs a coordinated restart of the job from checkpoint seq
// (0 = latest committed): a recovery with nothing dead. A member whose
// home never held seq — its pod migrated since — first fetches the image
// in place from a live holder, and the fan-out waits for every fetch. The
// plan runs inside the call, so a restart that needs no fetch fans out at
// once.
func (c *Coordinator) Restart(job *Job, seq int, done func(*RestartResult, error)) {
	if seq == 0 {
		seq = c.committed[job.Name]
	}
	op, err := c.begin("restart", job, seq)
	if err != nil {
		done(nil, err)
		return
	}
	op.rec = &recovery{assign: make(map[string]tcpip.AddrPort)}
	c.openRestart(op, trace.SpanContext{}, done)
	var fetches []*wireMsg
	for _, m := range job.Members {
		if home := c.nodeByAddr[m.Agent]; !c.lease.Dead(home.addr) {
			fetch, err := c.planHome(op, op.span.Context(), m.Pod, home, home)
			if err != nil {
				op.Fail(err)
				return
			}
			if fetch != nil {
				fetches = append(fetches, fetch)
			}
		}
	}
	if len(fetches) == 0 {
		c.start(op, wireMsg{Type: msgRestart, Seq: seq})
		return
	}
	c.sendFetches(op, fetches, op.span.Context())
}

// openRestart opens the restart of op's job from op.Seq on the op itself —
// Restart's, just begun, or a recovery's, once its plan has put every image
// in place: parent then nests the restart inside the recovery's span tree
// instead of opening a fresh root. The fan-out (c.start) follows once the
// images are in place; the result's clock starts there.
func (c *Coordinator) openRestart(op *rootOp, parent trace.SpanContext, done func(*RestartResult, error)) {
	job, seq := op.job, op.Seq
	args := []trace.Arg{
		trace.Str("job", job.Name), trace.Int("seq", int64(seq)),
		trace.Int("members", int64(len(job.Members))),
	}
	if parent.Zero() {
		op.span = c.tr.BeginOp(c.stack.Name(), "core", "restart", args...)
	} else {
		op.span = c.tr.BeginChild(parent, c.stack.Name(), "core", "restart", args...)
	}
	op.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			op.span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		op.span.End()
		now := c.stack.Engine().Now()
		res := &RestartResult{
			Seq:              seq,
			Latency:          op.doneAt.Sub(op.t0),
			CycleLatency:     now.Sub(op.t0),
			MaxLocalRestore:  op.maxLocal,
			MaxLocalContinue: op.maxCont,
			Messages:         c.msgCount(job.agents()) - op.msgBase,
			PerPod:           op.reports,
		}
		res.Overhead = res.CycleLatency - res.MaxLocalRestore - res.MaxLocalContinue
		done(res, nil)
	})
	for _, m := range job.Members {
		op.Expect("done", m.Pod)
		op.Expect("cont", m.Pod)
	}
}

// opFor locates the operation a reply belongs to: the job's, when a leader
// names it, else the one whose job has the replying pod as a member. Table
// iteration is key-sorted, so resolution is deterministic.
func (c *Coordinator) opFor(m *wireMsg) *rootOp {
	if m.Job != "" {
		if op := ctl.Find[rootOp](c.table, m.Job); op != nil && op.Seq == m.Seq {
			return op
		}
		return nil
	}
	var found *rootOp
	c.table.Each(func(o *ctl.Op) {
		if found != nil || o.Seq != m.Seq {
			return
		}
		op := o.Data.(*rootOp)
		for _, mem := range op.job.Members {
			if mem.Pod == m.Pod {
				found = op
				return
			}
		}
	})
	return found
}

// onMsg handles an agent's reply once the lane has charged its receive
// cost, CoordinatorMsgCost.
func (c *Coordinator) onMsg(cc *ctl.Link[*wireMsg], m *wireMsg) {
	switch m.Type {
	case msgPong: // a proof of life, and the node's load
		if addr := cc.TCP().RemoteAddr(); c.lease.Pong(addr) {
			c.nodeByAddr[addr].load = m.Load
		}
		return
	case msgReplicated:
		c.handleReplicated(m)
		return
	}
	op := c.opFor(m)
	if op == nil {
		return
	}
	if m.Type == msgFetchDone {
		c.handleFetchDone(op, cc.TCP().RemoteAddr(), m)
		return
	}
	// A member's own reply is a batch of one; a leader's batch replays
	// through the identical per-pod arrival logic in the leader's
	// (deterministic) arrival order. Commit/abort decisions therefore
	// cannot differ between the two transports.
	batch := m.Reports
	if m.Job == "" {
		batch = []GroupReport{m.report()}
	}
	c.tr.InstantCtx(op.span.Context(), c.stack.Name(), "core", "recv."+m.Type.String(),
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)), trace.Int("batch", int64(len(batch))))
	if m.Err != "" {
		op.Fail(fmt.Errorf("%w: pod %s: %s", ErrAgentFailed, m.Pod, m.Err))
		return
	}
	if mig := op.mig; mig != nil && m.RoundPages != nil {
		// A migration source's continue-done: its stream's record.
		mig.roundPages, mig.streamed = m.RoundPages, m.ImageBytes
	}
	for _, r := range batch {
		if !op.Active() {
			return
		}
		switch m.Type {
		case msgCommDisabled:
			c.arriveDisabled(op, r.Pod)
		case msgDone:
			c.arriveDone(op, r)
		case msgContinueDone:
			c.arriveCont(op, r)
		}
	}
}

// arriveDisabled handles one pod's <comm-disabled> vote, which only an
// optimized or copy-on-write checkpoint expects.
// Fig. 4: all communication disabled -> early continue.
func (c *Coordinator) arriveDisabled(op *rootOp, pod string) {
	if op.Arrive("disabled", pod) && op.Cleared("disabled") {
		c.sendContinue(op)
	}
}

// arriveDone handles one pod's <done> vote and report. A
// migration's destination reports the pod's frozen window here: it ends
// at the takeover, not at a continue.
func (c *Coordinator) arriveDone(op *rootOp, r GroupReport) {
	if !op.Arrive("done", r.Pod) {
		return
	}
	if r.LocalDuration > op.maxLocal {
		op.maxLocal = r.LocalDuration
	}
	op.maxBlocked = max(op.maxBlocked, r.BlockedDuration)
	op.reports = append(op.reports, PodReport{
		Pod:           r.Pod,
		LocalDuration: r.LocalDuration,
		ImageBytes:    r.ImageBytes,
	})
	if op.Cleared("done") {
		op.doneAt = c.stack.Engine().Now()
		// A restart carries no options: it always continues here.
		if !op.opts.Optimized && !op.opts.COW {
			c.sendContinue(op)
		} else if op.Cleared("cont") {
			// COW/optimized: continues may have completed before
			// the last image write finished.
			op.Finish()
		}
	}
}

// arriveCont handles one pod's <continue-done>.
func (c *Coordinator) arriveCont(op *rootOp, r GroupReport) {
	if !op.Arrive("cont", r.Pod) {
		return
	}
	if r.LocalDuration > op.maxCont {
		op.maxCont = r.LocalDuration
	}
	if r.BlockedDuration > op.maxBlocked {
		op.maxBlocked = r.BlockedDuration
	}
	if op.minBlocked == 0 || r.BlockedDuration < op.minBlocked {
		op.minBlocked = r.BlockedDuration
	}
	if op.Cleared("cont") && op.Cleared("done") {
		op.Finish()
	}
}

// sendContinue issues Step 3 of Fig. 2.
func (c *Coordinator) sendContinue(op *rootOp) {
	c.fanOut(op, op.dests, false, wireMsg{Type: msgContinue, Seq: op.Seq})
}
