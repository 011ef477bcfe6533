package core

import (
	"errors"
	"fmt"

	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Membership and automatic recovery (the coordinator side of the
// failure-handling extension of §5, taken to completion). The
// coordinator pings every registered node on a virtual-time ticker;
// lease expiry declares the node failed, aborts anything in flight that
// touches it, and — for watched jobs — drives recovery end to end:
// place the failed pods on surviving or spare nodes, fetch any image the
// new home does not already replicate, and restart the whole job from
// the newest checkpoint every failed pod still has a living holder for.

// Errors surfaced by recovery.
var (
	ErrNodeFailed = errors.New("core: node failed")
	ErrNoReplica  = errors.New("core: no surviving replica of a committed checkpoint")
	ErrNoTarget   = errors.New("core: no surviving node can host the pod")
)

// nodeInfo is one registered agent node.
type nodeInfo struct {
	name     string
	addr     tcpip.AddrPort
	spare    bool
	index    int // registration order: the deterministic tiebreak
	alive    bool
	lastPong sim.Time
	load     int // live pods reported by the latest pong
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

// recoveryOp tracks one in-flight recovery.
type recoveryOp struct {
	*ctl.Op
	job        *Job
	w          *watch
	failedNode *nodeInfo
	seq        int
	assign     map[string]tcpip.AddrPort // failed pod -> new home agent
	pods       []RecoveredPod
	ecSources  map[string][]tcpip.AddrPort // reconstructed pod -> shard holders to pull

	detect        sim.Duration
	placeStart    sim.Time
	place         sim.Duration
	transferStart sim.Time
	transfer      sim.Duration
	restartStart  sim.Time
	transferBytes int64
	reconstruct   sim.Duration // max per-pod decode window

	span       trace.Span
	phPlace    trace.Span
	phTransfer trace.Span
	phRestart  trace.Span
}

func (rec *recoveryOp) endSpans(args ...trace.Arg) {
	rec.phPlace.End(args...)
	rec.phTransfer.End(args...)
	rec.phRestart.End(args...)
	rec.span.End(args...)
}

// involves reports whether the recovery depends on the given node.
func (rec *recoveryOp) involves(addr tcpip.AddrPort) bool {
	for _, m := range rec.job.Members {
		if m.Agent == addr {
			return true
		}
	}
	for _, a := range rec.assign {
		if a == addr {
			return true
		}
	}
	return false
}

func recoveryKey(job string) string { return "recovery/" + job }

// RegisterNode makes a node's agent known to the membership layer. Spare
// nodes host no pods initially and exist to absorb recovered ones.
func (c *Coordinator) RegisterNode(name string, addr tcpip.AddrPort, spare bool) {
	if c.nodeByAddr[addr] != nil {
		return
	}
	n := &nodeInfo{name: name, addr: addr, spare: spare, index: len(c.nodes), alive: true}
	c.nodes = append(c.nodes, n)
	c.nodeByAddr[addr] = n
}

// Watch puts a job under automatic recovery: heartbeats start (if not
// already running), and a detected failure of any member's node triggers
// recovery, reported through onRecovery.
func (c *Coordinator) Watch(job *Job, onRecovery func(*RecoveryResult, error)) {
	c.watches = append(c.watches, &watch{job: job, onRecovery: onRecovery})
	now := c.stack.Engine().Now()
	addrs := make([]tcpip.AddrPort, 0, len(c.nodes))
	for _, n := range c.nodes {
		n.lastPong = now
		addrs = append(addrs, n.addr)
	}
	c.connectAddrs(addrs, nil)
	if c.ticker == nil {
		c.ticker = c.stack.Engine().NewTicker(c.params.heartbeatEvery(), c.heartbeatTick)
	}
}

// heartbeatTick expires leases, then pings every live node.
func (c *Coordinator) heartbeatTick() {
	now := c.stack.Engine().Now()
	lease := c.params.leaseTimeout()
	for _, n := range c.nodes {
		if !n.alive {
			continue
		}
		if now.Sub(n.lastPong) > lease {
			c.declareFailed(n)
			continue
		}
		cc, ok := c.conns[n.addr]
		if !ok || !cc.TCP().Established() {
			continue
		}
		conn := cc
		if c.tr.Enabled() {
			c.tr.Instant(c.stack.Name(), "core", "ping", trace.Str("node", n.name))
		}
		c.cpu.Do(c.params.MsgCost, func() { conn.send(&wireMsg{Type: msgPing}) })
	}
}

// handlePong refreshes a node's lease and load.
func (c *Coordinator) handlePong(cc *ctlConn, m *wireMsg) {
	n := c.nodeByAddr[cc.TCP().RemoteAddr()]
	if n == nil || !n.alive {
		return
	}
	n.lastPong = c.stack.Engine().Now()
	n.load = m.Load
}

// declareFailed marks the node dead, fails every in-flight operation
// that depends on it (the agents roll back via <abort> fan-out), and
// starts recovery for each watched job with a member there.
func (c *Coordinator) declareFailed(n *nodeInfo) {
	n.alive = false
	if c.tr.Enabled() {
		c.tr.Instant(c.stack.Name(), "core", "node.failed", trace.Str("node", n.name))
	}
	// Lease expiry is a flight-recorder trigger: the dump captures the
	// heartbeat window that led to the declaration.
	c.tr.DumpFlight("lease.expiry", "node "+n.name)
	var victims []*ctl.Op
	c.table.Each(func(o *ctl.Op) {
		switch d := o.Data.(type) {
		case *coordOp:
			for _, m := range d.job.Members {
				if m.Agent == n.addr {
					victims = append(victims, o)
					break
				}
			}
		case *recoveryOp:
			if d.involves(n.addr) {
				victims = append(victims, o)
			}
		case *migrateOp:
			if d.src == n.addr || d.dst == n.addr {
				victims = append(victims, o)
			}
		}
	})
	for _, o := range victims {
		o.Fail(fmt.Errorf("%w: %s", ErrNodeFailed, n.name))
	}
	for _, w := range c.watches {
		for _, m := range w.job.Members {
			if m.Agent == n.addr {
				c.startRecovery(w, n)
				break
			}
		}
	}
}

// startRecovery begins the detect->place->transfer->restart pipeline.
func (c *Coordinator) startRecovery(w *watch, failed *nodeInfo) {
	o, err := c.table.Begin("recovery", recoveryKey(w.job.Name), 0)
	if err != nil {
		return // recovery for this job already in flight
	}
	now := c.stack.Engine().Now()
	rec := &recoveryOp{
		Op: o, job: w.job, w: w, failedNode: failed,
		assign: make(map[string]tcpip.AddrPort),
		detect: now.Sub(failed.lastPong),
	}
	o.Data = rec
	if c.tr.Enabled() {
		// The recovery op root. The detect window (last proof of life to
		// lease expiry) precedes this span, so it rides along as a lead
		// argument that critical-path analysis turns into a lead segment.
		rec.span = c.tr.BeginOp(c.stack.Name(), "core", "recovery",
			trace.Str("job", w.job.Name), trace.Str("failed", failed.name),
			trace.Int("lead.detect_us", int64(rec.detect/sim.Microsecond)))
		rec.phPlace = c.tr.BeginChild(rec.span.Context(), c.stack.Name(), trace.PhaseCat,
			"recovery.place", trace.Str("job", w.job.Name))
	}
	c.tr.DumpFlight("recovery.start", w.job.Name)
	o.OnFail(func(_ *ctl.Op, err error) {
		rec.endSpans(trace.Str("err", err.Error()))
		if rec.w.onRecovery != nil {
			rec.w.onRecovery(nil, err)
		}
	})
	rec.placeStart = now
	c.cpu.Do(c.params.MsgCost, func() { c.placeRecovery(rec) })
}

// holderNodes returns the live registered nodes holding (pod, seq), in
// registration order (deterministic; the holder set is a map).
func (c *Coordinator) holderNodes(pod string, seq int) []*nodeInfo {
	set := c.holders[pod][seq]
	if len(set) == 0 {
		return nil
	}
	var out []*nodeInfo
	for _, n := range c.nodes {
		if n.alive && set[n.addr] {
			out = append(out, n)
		}
	}
	return out
}

// KnownHolders returns how many agents the coordinator records as
// holding the full image chain for (pod, seq): the commit holder plus
// every <replicated> report received so far. Harnesses that kill nodes
// gate on it — an agent-side replication counter ticks in the event that
// *enqueues* the placement report, one network flight before the
// registry learns of the copy.
func (c *Coordinator) KnownHolders(pod string, seq int) int {
	return len(c.holders[pod][seq])
}

// KnownECShards returns how many ring positions of the erasure-coded
// shard set for (pod, seq) have reported adoption (same gating role as
// KnownHolders for EC durability).
func (c *Coordinator) KnownECShards(pod string, seq int) int {
	if set := c.ecHolders[pod][seq]; set != nil {
		return len(set.byPos)
	}
	return 0
}

// addHolder records that addr holds the image chain for (pod, seq).
func (c *Coordinator) addHolder(pod string, seq int, addr tcpip.AddrPort) {
	if c.holders[pod] == nil {
		c.holders[pod] = make(map[int]map[tcpip.AddrPort]bool)
	}
	if c.holders[pod][seq] == nil {
		c.holders[pod][seq] = make(map[tcpip.AddrPort]bool)
	}
	c.holders[pod][seq][addr] = true
}

// recordCommitHolders marks each member's own agent as a holder of the
// freshly committed checkpoint.
func (c *Coordinator) recordCommitHolders(job *Job, seq int) {
	for _, m := range job.Members {
		c.addHolder(m.Pod, seq, m.Agent)
	}
}

// handleReplicated feeds an agent's placement report into the holder
// registry: a peer now holds the image chain — or, when the report
// carries ECM, the peer at ring position Repl.Holder now stores its shard
// subset of (pod, seq), and the set decodes from any Repl.ECM holders.
func (c *Coordinator) handleReplicated(m *wireMsg) {
	if m.Repl == nil {
		return
	}
	peer := tcpip.AddrPort{Addr: m.Repl.PeerIP, Port: m.Repl.PeerPort}
	if m.Repl.ECM == 0 {
		c.addHolder(m.Pod, m.Seq, peer)
		if c.tr.Enabled() {
			c.tr.Instant(c.stack.Name(), "core", "replicated",
				trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
		}
		return
	}
	if c.ecHolders[m.Pod] == nil {
		c.ecHolders[m.Pod] = make(map[int]*ecSetHolders)
	}
	set := c.ecHolders[m.Pod][m.Seq]
	if set == nil {
		set = &ecSetHolders{m: m.Repl.ECM, byPos: make(map[int]tcpip.AddrPort)}
		c.ecHolders[m.Pod][m.Seq] = set
	}
	set.byPos[m.Repl.Holder] = peer
	if c.tr.Enabled() {
		c.tr.Instant(c.stack.Name(), "core", "ec.holding",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)),
			trace.Int("shard", int64(m.Repl.Holder)))
	}
}

// ecLiveHolders returns the live shard holders of (pod, seq) in ring-
// position order (deterministic) plus the set's data-shard count M.
// Positions are distinct, so any M entries carry M distinct shards per
// stripe — the decode threshold. M is 0 when no set was registered.
func (c *Coordinator) ecLiveHolders(pod string, seq int) ([]tcpip.AddrPort, int) {
	set := c.ecHolders[pod][seq]
	if set == nil {
		return nil, 0
	}
	maxPos := 0
	for pos := range set.byPos {
		if pos > maxPos {
			maxPos = pos
		}
	}
	var out []tcpip.AddrPort
	for pos := 0; pos <= maxPos; pos++ {
		addr, ok := set.byPos[pos]
		if !ok {
			continue
		}
		if n := c.nodeByAddr[addr]; n != nil && n.alive {
			out = append(out, addr)
		}
	}
	return out, set.m
}

// ecRecoverable reports whether (pod, seq) can be rebuilt from shards:
// at least M of the M+R holders are still alive.
func (c *Coordinator) ecRecoverable(pod string, seq int) bool {
	live, m := c.ecLiveHolders(pod, seq)
	return m > 0 && len(live) >= m
}

// placeRecovery decides the restore sequence and the new home (and
// source replica) for every failed pod.
func (c *Coordinator) placeRecovery(rec *recoveryOp) {
	if !rec.Active() {
		return
	}
	job := rec.job
	var failedPods []string
	for _, m := range job.Members {
		if m.Agent == rec.failedNode.addr {
			failedPods = append(failedPods, m.Pod)
		}
	}
	// seq*: the newest committed checkpoint every failed pod still has a
	// living holder for — a full replica, or enough live erasure-code
	// shard holders to decode the chain.
	seqStar := 0
	for s := c.committed[job.Name]; s >= 1 && seqStar == 0; s-- {
		ok := true
		for _, p := range failedPods {
			if len(c.holderNodes(p, s)) == 0 && !c.ecRecoverable(p, s) {
				ok = false
				break
			}
		}
		if ok {
			seqStar = s
		}
	}
	if seqStar == 0 {
		rec.Fail(fmt.Errorf("%w: job %s", ErrNoReplica, job.Name))
		return
	}
	rec.seq = seqStar

	// Place each failed pod: spread across nodes hosting the fewest pods
	// of this job, prefer a node already holding the image (free
	// transfer), then the lightest load, then registration order.
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
	for _, p := range failedPods {
		var target *nodeInfo
		var tScore [3]int
		for _, n := range c.nodes {
			if !n.alive {
				continue
			}
			holds := 0
			if !c.holders[p][seqStar][n.addr] {
				holds = 1 // needs a transfer
			}
			score := [3]int{jobPodsOn(n.addr), holds, n.load}
			if target == nil || score[0] < tScore[0] ||
				(score[0] == tScore[0] && (score[1] < tScore[1] ||
					(score[1] == tScore[1] && score[2] < tScore[2]))) {
				target, tScore = n, score
			}
		}
		if target == nil {
			rec.Fail(fmt.Errorf("%w: pod %s", ErrNoTarget, p))
			return
		}
		rec.assign[p] = target.addr
		holders := c.holderNodes(p, seqStar)
		if len(holders) == 0 {
			// No full replica survives: the new home reconstructs from M
			// live shard holders. The target's own shards (if it is one)
			// count toward M via its local lookup, so exclude it from the
			// pull list; positions are distinct, so the first M entries
			// give M distinct shards per stripe.
			live, m := c.ecLiveHolders(p, seqStar)
			need := m
			var pull []tcpip.AddrPort
			for _, h := range live {
				if h == target.addr {
					need--
					continue
				}
				pull = append(pull, h)
			}
			if need < 1 {
				need = 1 // the fetch protocol needs at least one source
			}
			if len(pull) < need {
				rec.Fail(fmt.Errorf("%w: pod %s (ec shards)", ErrNoReplica, p))
				return
			}
			pull = pull[:need]
			if rec.ecSources == nil {
				rec.ecSources = make(map[string][]tcpip.AddrPort)
			}
			rec.ecSources[p] = pull
			from := target.name
			if n := c.nodeByAddr[pull[0]]; n != nil {
				from = n.name
			}
			rec.pods = append(rec.pods, RecoveredPod{
				Pod: p, From: from, To: target.name,
				Transferred: true, Reconstructed: true,
			})
			if c.tr.Enabled() {
				c.tr.InstantCtx(rec.span.Context(), c.stack.Name(), "core", "recovery.placed",
					trace.Str("pod", p), trace.Str("to", target.name),
					trace.Str("mode", "reconstruct"), trace.Int("sources", int64(len(pull))))
			}
			continue
		}
		// Source: the lightest-loaded surviving holder (registration
		// order breaks ties); irrelevant when the target already holds.
		src := holders[0]
		for _, h := range holders[1:] {
			if h.load < src.load {
				src = h
			}
		}
		rec.pods = append(rec.pods, RecoveredPod{
			Pod: p, From: src.name, To: target.name,
			Transferred: !c.holders[p][seqStar][target.addr],
		})
		if c.tr.Enabled() {
			c.tr.InstantCtx(rec.span.Context(), c.stack.Name(), "core", "recovery.placed",
				trace.Str("pod", p), trace.Str("to", target.name), trace.Str("from", src.name))
		}
	}
	now := c.stack.Engine().Now()
	rec.place = now.Sub(rec.placeStart)
	rec.phPlace.End()
	rec.transferStart = now
	if c.tr.Enabled() {
		rec.phTransfer = c.tr.BeginChild(rec.span.Context(), c.stack.Name(), trace.PhaseCat,
			"recovery.transfer", trace.Str("job", job.Name))
	}

	// Transfer phase: fetch images onto new homes that lack them.
	fetches := 0
	for i, rp := range rec.pods {
		if !rec.pods[i].Transferred {
			continue
		}
		fetches++
		rec.Expect("fetch", rp.Pod)
	}
	if fetches == 0 {
		c.startRecoveryRestart(rec)
		return
	}
	for _, rp := range rec.pods {
		if !rp.Transferred {
			continue
		}
		rp := rp
		c.cpu.Do(c.params.MsgCost, func() {
			if !rec.Active() {
				return
			}
			target := rec.assign[rp.Pod]
			cc, ok := c.conns[target]
			if !ok || !cc.TCP().Established() {
				rec.Fail(fmt.Errorf("%w: %s", ErrNotConnected, target))
				return
			}
			from := &replPayload{}
			if rp.Reconstructed {
				for _, s := range rec.ecSources[rp.Pod] {
					from.Sources = append(from.Sources, GroupMember{IP: s.Addr, Port: s.Port})
				}
			} else {
				for _, n := range c.nodes {
					if n.name == rp.From {
						from.PeerIP, from.PeerPort = n.addr.Addr, n.addr.Port
						break
					}
				}
			}
			cc.send(&wireMsg{Type: msgFetch, Seq: rec.seq, Pod: rp.Pod, Repl: from, ctx: rec.phTransfer.Context()})
		})
	}
}

// handleFetchDone advances the recovery transfer barrier.
func (c *Coordinator) handleFetchDone(m *wireMsg) {
	var rec *recoveryOp
	c.table.Each(func(o *ctl.Op) {
		if rec != nil {
			return
		}
		if r, ok := o.Data.(*recoveryOp); ok && r.seq == m.Seq {
			if _, mine := r.assign[m.Pod]; mine {
				rec = r
			}
		}
	})
	if rec == nil {
		return
	}
	if m.Err != "" {
		rec.Fail(fmt.Errorf("%w: fetch %s: %s", ErrNodeFailed, m.Pod, m.Err))
		return
	}
	if !rec.Arrive("fetch", m.Pod) {
		return
	}
	c.addHolder(m.Pod, m.Seq, rec.assign[m.Pod])
	if m.Repl != nil {
		rec.transferBytes += m.Repl.Bytes
	}
	// A reconstructed pod reports its decode-to-disk window; the phase
	// barrier makes the slowest one the Transfer decomposition.
	if m.LocalDuration > rec.reconstruct {
		rec.reconstruct = m.LocalDuration
	}
	if rec.Cleared("fetch") {
		c.startRecoveryRestart(rec)
	}
}

// startRecoveryRestart re-homes the failed members and restarts the
// whole job from seq*.
func (c *Coordinator) startRecoveryRestart(rec *recoveryOp) {
	now := c.stack.Engine().Now()
	rec.transfer = now.Sub(rec.transferStart)
	rec.phTransfer.End(trace.Int("bytes", rec.transferBytes))
	rec.restartStart = now
	if c.tr.Enabled() {
		rec.phRestart = c.tr.BeginChild(rec.span.Context(), c.stack.Name(), trace.PhaseCat,
			"recovery.restart", trace.Str("job", rec.job.Name), trace.Int("seq", int64(rec.seq)))
	}
	job := rec.job
	for i := range job.Members {
		if addr, ok := rec.assign[job.Members[i].Pod]; ok {
			job.Members[i].Agent = addr
		}
	}
	// The restart rolls the whole job back to seq*; later checkpoints
	// (if any) have no surviving copy for the failed pods.
	if rec.seq < c.committed[job.Name] {
		c.committed[job.Name] = rec.seq
	}
	c.Connect(job, func(err error) {
		if err != nil {
			rec.Fail(err)
			return
		}
		c.runRestart(job, rec.seq, true, rec.phRestart.Context(), func(res *RestartResult, err error) {
			if err != nil {
				rec.Fail(err)
				return
			}
			end := c.stack.Engine().Now()
			restartDur := end.Sub(rec.restartStart)
			result := &RecoveryResult{
				Job:           job.Name,
				FailedNode:    rec.failedNode.name,
				Seq:           rec.seq,
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
			rec.phRestart.End()
			rec.span.End(trace.Int("mttr_us", int64(result.MTTR/sim.Microsecond)))
			rec.Finish()
			if rec.w.onRecovery != nil {
				rec.w.onRecovery(result, nil)
			}
		})
	})
}
