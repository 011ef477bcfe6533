package core

import (
	"errors"
	"fmt"
	"slices"

	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Membership and automatic recovery (the coordinator side of the
// failure-handling extension of §5, taken to completion). Once a job is
// watched the coordinator holds a ctl.Lease on every registered node;
// expiry declares the node failed, aborts anything in flight that touches
// it, and — for watched jobs — drives recovery end to end: place the
// failed pods on surviving or spare nodes, fetch any image the new home
// does not already replicate, and restart the whole job from the newest
// checkpoint every failed pod still has a living holder for.

// Errors surfaced by recovery.
var (
	ErrNodeFailed = errors.New("core: node failed")
	ErrNoReplica  = errors.New("core: no surviving replica of a committed checkpoint")
	ErrNoTarget   = errors.New("core: no surviving node can host the pod")
)

// nodeInfo is one registered agent node, in c.nodes in registration order.
type nodeInfo struct {
	name string
	addr tcpip.AddrPort
	load int // live pods reported by the latest pong
}

// watch is one job under automatic recovery.
type watch struct {
	job        *Job
	onRecovery func(*RecoveryResult, error)
}

// RecoveredPod describes where one failed pod went.
type RecoveredPod struct {
	Pod string
	// From is the surviving replica the image came from; To the new home
	// node. Transferred is false when the new home already held the
	// image (replication made the fetch free). Reconstructed marks a pod
	// whose image no surviving node held whole: the new home pulled the
	// shard subsets of M live erasure-code holders (From names the first)
	// and decoded the chain locally.
	From          string
	To            string
	Transferred   bool
	Reconstructed bool
}

// RecoveryResult reports one automatic recovery, with MTTR split into
// the phases the evaluation tables break out.
type RecoveryResult struct {
	Job        string
	FailedNode string
	// Seq is the checkpoint the job restarted from: the newest committed
	// sequence every failed pod still had a living holder for.
	Seq  int
	Pods []RecoveredPod
	// Phase durations: Detect spans last proof of life to lease expiry;
	// Place is the placement decision; Transfer the image fetches
	// (zero when replicas already sit on the new homes); Restart the
	// coordinated restart. MTTR is their sum.
	Detect   sim.Duration
	Place    sim.Duration
	Transfer sim.Duration
	Restart  sim.Duration
	MTTR     sim.Duration
	// Reconstruct is the longest per-pod erasure decode window, for pods
	// no surviving node held whole. It happens on the new home inside the
	// transfer phase, so it is a decomposition of Transfer, not an extra
	// MTTR term; zero when every image came from a full replica.
	Reconstruct sim.Duration
	// TransferBytes is what the fetches actually moved.
	TransferBytes int64
	// RestartResult is the underlying coordinated restart's report.
	RestartResult *RestartResult
}

// recovery is what a rootOp of kind "recovery" carries in front of its
// restart: the plan (who restarts where), the failure that started it, and
// the phase clock the result reports.
type recovery struct {
	w          *watch
	failedNode *nodeInfo
	// superseded marks a plan that a later node failure overtook: it closes
	// its spans and reports nothing — the plan begun in its place answers
	// for the job.
	superseded bool
	// assign is the home each pod of the plan restarts on: a new one for a
	// pod whose node died, its own for a survivor that must fetch seq*.
	assign map[string]tcpip.AddrPort
	pods   []RecoveredPod

	detect        sim.Duration
	place         sim.Duration
	transferStart sim.Time
	transfer      sim.Duration
	restartStart  sim.Time
	transferBytes int64
	reconstruct   sim.Duration // max per-pod decode window

	span  trace.Span
	phase trace.Span // the one in progress: place, transfer or restart
}

func (rec *recovery) endSpans(args ...trace.Arg) {
	rec.phase.End(args...)
	rec.span.End(args...)
}

// placement is where one committed (pod, seq) image lives: the agents
// holding its chain whole and — when it was erasure-coded — the set's
// data-shard count M and the holder of each ring position's shard subset.
type placement struct {
	whole  map[tcpip.AddrPort]bool
	m      int
	shards map[int]tcpip.AddrPort
}

// RegisterNode makes a node's agent known to the membership layer. A node
// hosting no pods (a spare) absorbs recovered ones like any other.
func (c *Coordinator) RegisterNode(name string, addr tcpip.AddrPort) {
	if c.nodeByAddr[addr] != nil {
		return
	}
	n := &nodeInfo{name: name, addr: addr}
	c.nodes = append(c.nodes, n)
	c.nodeByAddr[addr] = n
}

// Watch puts a job under automatic recovery: each registered node's lease
// starts, unless it has one, and a detected failure of any member's node
// triggers recovery, reported through onRecovery.
func (c *Coordinator) Watch(job *Job, onRecovery func(*RecoveryResult, error)) {
	c.watches = append(c.watches, &watch{job: job, onRecovery: onRecovery})
	addrs := make([]tcpip.AddrPort, 0, len(c.nodes))
	for _, n := range c.nodes {
		addrs = append(addrs, n.addr)
	}
	c.ep.Connect(addrs, nil)
	c.lease.Register(addrs...)
}

// ping is the lease's ping hook: a <ping> to a live node, if its link is up.
func (c *Coordinator) ping(addr tcpip.AddrPort) {
	if cc, ok := c.ep.Link(addr); ok {
		c.tr.Instant(c.stack.Name(), "core", "ping", trace.Str("node", c.nodeByAddr[addr].name))
		c.pings.Do(CoordinatorMsgCost, cc)
	}
}

// declareFailed is the lease's verdict on the node at addr: it fails
// every in-flight operation that depends on the node (the agents roll
// back via <abort> fan-out), and starts recovery for each watched job with
// a member on a dead node — this one or an earlier one: a recovery the
// failure overtook is replaced by a plan that knows about both.
func (c *Coordinator) declareFailed(addr tcpip.AddrPort) {
	n := c.nodeByAddr[addr]
	c.tr.Instant(c.stack.Name(), "core", "node.failed", trace.Str("node", n.name))
	// Lease expiry is a flight-recorder trigger: the dump captures the
	// heartbeat window that led to the declaration.
	c.tr.DumpFlight("lease.expiry", "node "+n.name)
	c.table.Each(func(o *ctl.Op) {
		if op := o.Data.(*rootOp); op.involves(addr) {
			if op.rec != nil {
				op.rec.superseded = true
			}
			op.Fail(fmt.Errorf("%w: %s", ErrNodeFailed, n.name))
		}
	})
	for _, w := range c.watches {
		c.startRecovery(w, n)
	}
}

// startRecovery begins the detect->place->transfer->restart pipeline for a
// watched job that has lost a member, unless an operation the failure did
// not touch holds the job. Detect runs from the last proof of life of the
// first of its dead member nodes to go silent — the one failed node's,
// unless this plan replaces one that a second failure overtook.
func (c *Coordinator) startRecovery(w *watch, failed *nodeInfo) {
	var first *nodeInfo
	for _, m := range w.job.Members {
		n := c.nodeByAddr[m.Agent]
		if c.lease.Dead(n.addr) && (first == nil || c.lease.LastPong(n.addr) < c.lease.LastPong(first.addr)) {
			first = n
		}
	}
	if first == nil {
		return
	}
	op, err := c.begin("recovery", w.job, 0)
	if err != nil {
		return
	}
	rec := &recovery{
		w: w, failedNode: failed,
		assign: make(map[string]tcpip.AddrPort),
		detect: c.stack.Engine().Now().Sub(c.lease.LastPong(first.addr)),
	}
	op.rec = rec
	// The recovery op root. The detect window (last proof of life to
	// lease expiry) precedes this span, so it rides along as a lead
	// argument that critical-path analysis turns into a lead segment.
	rec.span = c.tr.BeginOp(c.stack.Name(), "core", "recovery",
		trace.Str("job", w.job.Name), trace.Str("failed", failed.name),
		trace.Int("lead.detect_us", int64(rec.detect/sim.Microsecond)))
	rec.phase = c.tr.BeginChild(rec.span.Context(), c.stack.Name(), trace.PhaseCat,
		"recovery.place", trace.Str("job", w.job.Name))
	c.tr.DumpFlight("recovery.start", w.job.Name)
	// Until the restart installs its own finish hook only failure ends the op.
	op.OnFinish(func(_ *ctl.Op, err error) { c.recoveryDone(op, nil, err) })
	c.cpu.Do(CoordinatorMsgCost, func() { c.placeRecovery(op) })
}

// KnownHolders returns how many agents the coordinator records as
// holding the full image chain for (pod, seq): the commit holder plus
// every <replicated> report received so far. Harnesses that kill nodes
// gate on it — an agent-side replication counter ticks in the event that
// *enqueues* the placement report, one network flight before the
// registry learns of the copy.
func (c *Coordinator) KnownHolders(pod string, seq int) int {
	return len(c.placed[pod][seq].whole)
}

// KnownECShards returns how many ring positions of the erasure-coded
// shard set for (pod, seq) have reported adoption (same gating role as
// KnownHolders for EC durability).
func (c *Coordinator) KnownECShards(pod string, seq int) int {
	return len(c.placed[pod][seq].shards)
}

// entry returns the registry entry for (pod, seq), filing an empty one on
// first mention of the image.
func (c *Coordinator) entry(pod string, seq int) placement {
	if c.placed[pod] == nil {
		c.placed[pod] = make(map[int]placement)
	}
	p, ok := c.placed[pod][seq]
	if !ok {
		p = placement{whole: make(map[tcpip.AddrPort]bool), shards: make(map[int]tcpip.AddrPort)}
		c.placed[pod][seq] = p
	}
	return p
}

// addHolder records that addr holds the image chain for (pod, seq).
func (c *Coordinator) addHolder(pod string, seq int, addr tcpip.AddrPort) {
	c.entry(pod, seq).whole[addr] = true
}

// handleReplicated feeds an agent's placement report into the registry: a
// peer now holds the image chain — or, when the report carries ECM, the
// peer at ring position Repl.Holder now stores its shard subset of (pod,
// seq), and the set decodes from any Repl.ECM holders.
func (c *Coordinator) handleReplicated(m *wireMsg) {
	if m.Repl == nil {
		return
	}
	peer := tcpip.AddrPort{Addr: m.Repl.PeerIP, Port: m.Repl.PeerPort}
	if m.Repl.ECM == 0 {
		c.addHolder(m.Pod, m.Seq, peer)
		c.tr.Instant(c.stack.Name(), "core", "replicated",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
		return
	}
	p := c.entry(m.Pod, m.Seq)
	p.m = m.Repl.ECM
	p.shards[m.Repl.Holder] = peer
	c.placed[m.Pod][m.Seq] = p
	c.tr.Instant(c.stack.Name(), "core", "ec.holding",
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)),
		trace.Int("shard", int64(m.Repl.Holder)))
}

// sources is the registry's one reader: where a node at target could get
// (pod, seq) from, as live registered nodes. whole lists those holding the
// image chain, in registration order (deterministic; the holder set is a
// map) — target holds it already if it is among them. Only when there is
// none does pull name the shard holders target must fetch from to
// reconstruct it: the first in ring-position order that complete M.
// Positions are distinct, so any M carry M distinct shards per stripe — the
// decode threshold — and target's own subset, if it holds one, counts
// toward M through its local lookup and is not pulled; the fetch protocol
// needs at least one source all the same. ok reports whether either way
// exists.
func (c *Coordinator) sources(pod string, seq int, target tcpip.AddrPort) (whole, pull []*nodeInfo, ok bool) {
	p := c.placed[pod][seq]
	for _, n := range c.nodes {
		if !c.lease.Dead(n.addr) && p.whole[n.addr] {
			whole = append(whole, n)
		}
	}
	if len(whole) > 0 || p.m == 0 {
		return whole, nil, len(whole) > 0
	}
	positions := make([]int, 0, len(p.shards))
	for pos := range p.shards {
		positions = append(positions, pos)
	}
	slices.Sort(positions)
	need := p.m
	for _, pos := range positions {
		n := c.nodeByAddr[p.shards[pos]]
		if n == nil || c.lease.Dead(n.addr) {
			continue
		}
		if n.addr == target {
			need--
			continue
		}
		pull = append(pull, n)
	}
	need = max(need, 1)
	if len(pull) < need {
		return nil, nil, false
	}
	return nil, pull[:need], true
}

// placeRecovery decides the restore sequence and, for every pod that
// cannot restart where it is from what it holds, its home and its source.
func (c *Coordinator) placeRecovery(op *rootOp) {
	if !op.Active() {
		return
	}
	rec, job := op.rec, op.job
	// seq*: the newest committed checkpoint every member can restart from —
	// its live home holds it or a living holder can supply it: a full
	// replica, or enough live erasure-code shard holders to decode the
	// chain.
	reachable := func(seq int) bool {
		for _, m := range job.Members {
			home := c.nodeByAddr[m.Agent]
			var target tcpip.AddrPort
			if !c.lease.Dead(home.addr) {
				target = home.addr
			}
			if _, _, ok := c.sources(m.Pod, seq, target); !ok {
				return false
			}
		}
		return true
	}
	seqStar := c.committed[job.Name]
	for seqStar >= 1 && !reachable(seqStar) {
		seqStar--
	}
	if seqStar < 1 {
		op.Fail(fmt.Errorf("%w: job %s", ErrNoReplica, job.Name))
		return
	}
	// From here <fetch-done> and <done> find the op by seq*.
	op.Seq = seqStar

	jobPodsOn := func(addr tcpip.AddrPort) int {
		n := 0
		for _, m := range job.Members {
			a := m.Agent
			if t, ok := rec.assign[m.Pod]; ok {
				a = t
			}
			if a == addr {
				n++
			}
		}
		return n
	}
	var fetches []*wireMsg
	for _, m := range job.Members {
		home := c.nodeByAddr[m.Agent]
		target := home
		if c.lease.Dead(home.addr) {
			// Place the pod: spread across nodes hosting the fewest pods of
			// this job, prefer a node already holding the image (free
			// transfer), then the lightest load, then registration order.
			whole, _, _ := c.sources(m.Pod, seqStar, tcpip.AddrPort{})
			target = nil
			var tScore [3]int
			for _, n := range c.nodes {
				if c.lease.Dead(n.addr) {
					continue
				}
				holds := 0
				if !slices.Contains(whole, n) {
					holds = 1 // needs a transfer
				}
				score := [3]int{jobPodsOn(n.addr), holds, n.load}
				if target == nil || slices.Compare(score[:], tScore[:]) < 0 {
					target, tScore = n, score
				}
			}
			if target == nil {
				op.Fail(fmt.Errorf("%w: pod %s", ErrNoTarget, m.Pod))
				return
			}
		}
		fetch, err := c.planHome(op, rec.span.Context(), m.Pod, home, target)
		if err != nil {
			op.Fail(err)
			return
		}
		if fetch != nil {
			fetches = append(fetches, fetch)
		}
	}
	now := c.stack.Engine().Now()
	rec.place = now.Sub(op.Started())
	rec.phase.End()
	rec.transferStart = now
	rec.phase = c.tr.BeginChild(rec.span.Context(), c.stack.Name(), trace.PhaseCat,
		"recovery.transfer", trace.Str("job", job.Name))

	// Transfer phase: fetch images onto the homes that lack them.
	if len(fetches) == 0 {
		c.startRecoveryRestart(op)
		return
	}
	c.sendFetches(op, fetches, rec.phase.Context())
}

// planHome records in op's plan that pod restarts from op.Seq on target —
// its home, or where a recovery placed it because home died — and returns
// the <fetch> that brings the image there first, nil when no transfer is
// needed. A survivor holding the image restarts where it is and is left
// out of the plan. The source is the lightest-loaded live holder of the
// whole chain (registration order breaks ties); with none left, target
// reconstructs from the shard subsets of M live erasure-code holders.
func (c *Coordinator) planHome(op *rootOp, ctx trace.SpanContext, pod string, home, target *nodeInfo) (*wireMsg, error) {
	rec := op.rec
	whole, pull, ok := c.sources(pod, op.Seq, target.addr)
	holds := slices.Contains(whole, target)
	if target == home && holds {
		return nil, nil
	}
	rec.assign[pod] = target.addr
	rp := RecoveredPod{Pod: pod, To: target.name, Transferred: !holds}
	from := &replPayload{}
	if len(whole) > 0 {
		src := whole[0]
		for _, h := range whole[1:] {
			if h.load < src.load {
				src = h
			}
		}
		rp.From = src.name
		from.PeerIP, from.PeerPort = src.addr.Addr, src.addr.Port
		c.tr.InstantCtx(ctx, c.stack.Name(), "core", "recovery.placed",
			trace.Str("pod", pod), trace.Str("to", target.name), trace.Str("from", src.name))
	} else {
		if !ok {
			return nil, fmt.Errorf("%w: %s/%d", ErrNoReplica, pod, op.Seq)
		}
		rp.From, rp.Reconstructed = pull[0].name, true
		for _, n := range pull {
			from.Sources = append(from.Sources, GroupMember{IP: n.addr.Addr, Port: n.addr.Port})
		}
		c.tr.InstantCtx(ctx, c.stack.Name(), "core", "recovery.placed",
			trace.Str("pod", pod), trace.Str("to", target.name),
			trace.Str("mode", "reconstruct"), trace.Int("sources", int64(len(pull))))
	}
	rec.pods = append(rec.pods, rp)
	if !rp.Transferred {
		return nil, nil
	}
	return &wireMsg{Type: msgFetch, Seq: op.Seq, Pod: pod, Repl: from}, nil
}

// sendFetches sends each planned <fetch> to the home that lacks the image,
// under ctx, and makes the op wait for every <fetch-done>.
func (c *Coordinator) sendFetches(op *rootOp, fetches []*wireMsg, ctx trace.SpanContext) {
	for _, fetch := range fetches {
		op.Expect("fetch", fetch.Pod)
		fetch.ctx = ctx
		c.sendOrFail(op, op.rec.assign[fetch.Pod], fetch)
	}
}

// handleFetchDone advances the recovery transfer barrier. Only the home
// this plan sent the pod's <fetch> to answers for it: a report for the same
// pod and sequence from elsewhere belongs to a plan this one overtook.
func (c *Coordinator) handleFetchDone(op *rootOp, from tcpip.AddrPort, m *wireMsg) {
	rec := op.rec
	if rec == nil || rec.assign[m.Pod] != from {
		return
	}
	if m.Err != "" {
		op.Fail(fmt.Errorf("%w: fetch %s: %s", ErrNodeFailed, m.Pod, m.Err))
		return
	}
	if !op.Arrive("fetch", m.Pod) {
		return
	}
	c.addHolder(m.Pod, m.Seq, from)
	if m.Repl != nil {
		rec.transferBytes += m.Repl.Bytes
	}
	// A reconstructed pod reports its decode-to-disk window; the phase
	// barrier makes the slowest one the Transfer decomposition.
	if m.LocalDuration > rec.reconstruct {
		rec.reconstruct = m.LocalDuration
	}
	if !op.Cleared("fetch") {
		return
	}
	if op.Kind == "restart" {
		c.start(op, wireMsg{Type: msgRestart, Seq: op.Seq})
		return
	}
	c.startRecoveryRestart(op)
}

// startRecoveryRestart re-homes the plan's members and restarts the whole
// job from seq*, on the recovery's own op.
func (c *Coordinator) startRecoveryRestart(op *rootOp) {
	rec, job := op.rec, op.job
	now := c.stack.Engine().Now()
	rec.transfer = now.Sub(rec.transferStart)
	rec.phase.End(trace.Int("bytes", rec.transferBytes))
	rec.restartStart = now
	rec.phase = c.tr.BeginChild(rec.span.Context(), c.stack.Name(), trace.PhaseCat,
		"recovery.restart", trace.Str("job", job.Name), trace.Int("seq", int64(op.Seq)))
	for i := range job.Members {
		if addr, ok := rec.assign[job.Members[i].Pod]; ok {
			job.Members[i].Agent = addr
		}
	}
	// The restart rolls the whole job back to seq*; later checkpoints
	// (if any) have no surviving copy for the failed pods.
	if op.Seq < c.committed[job.Name] {
		c.committed[job.Name] = op.Seq
	}
	c.Connect(job, func(err error) {
		if err != nil {
			op.Fail(err)
		} else if op.Active() {
			c.openRestart(op, rec.phase.Context(), func(res *RestartResult, err error) { c.recoveryDone(op, res, err) })
			c.start(op, wireMsg{Type: msgRestart, Seq: op.Seq})
		}
	})
}

// recoveryDone ends a recovery: with the restart's result, or with the
// error that failed it in whichever phase.
func (c *Coordinator) recoveryDone(op *rootOp, res *RestartResult, err error) {
	rec := op.rec
	if err != nil {
		rec.endSpans(trace.Str("err", err.Error()))
		if !rec.superseded && rec.w.onRecovery != nil {
			rec.w.onRecovery(nil, err)
		}
		return
	}
	restartDur := c.stack.Engine().Now().Sub(rec.restartStart)
	result := &RecoveryResult{
		Job:           op.job.Name,
		FailedNode:    rec.failedNode.name,
		Seq:           op.Seq,
		Pods:          rec.pods,
		Detect:        rec.detect,
		Place:         rec.place,
		Transfer:      rec.transfer,
		Restart:       restartDur,
		MTTR:          rec.detect + rec.place + rec.transfer + restartDur,
		Reconstruct:   rec.reconstruct,
		TransferBytes: rec.transferBytes,
		RestartResult: res,
	}
	rec.phase.End()
	rec.span.End(trace.Int("mttr_us", int64(result.MTTR/sim.Microsecond)))
	if rec.w.onRecovery != nil {
		rec.w.onRecovery(result, nil)
	}
}
