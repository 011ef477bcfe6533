package core

import (
	"errors"
	"fmt"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// DefaultControlPort is the agents' control port.
const DefaultControlPort = 7077

// The agent daemon's local costs, calibrated to the paper's testbed
// (DESIGN §5). The flushing baseline's agent pays the same ones.
const (
	// AgentMsgCost is the CPU cost of handling one control message
	// (decode, dispatch, encode of the reply).
	AgentMsgCost = 60 * sim.Microsecond
	// filterCost is the cost of installing or removing the packet-filter
	// rule that disables the pod's communication.
	filterCost = 5 * sim.Microsecond
	// CaptureCost is the in-kernel cost of walking process and socket
	// structures during the state copy (the short window the paper holds
	// the network-stack locks for).
	CaptureCost = 150 * sim.Microsecond
	// CaptureBPS scales the capture window with the bytes copied: the
	// in-kernel, memory-bound memcpy rate.
	CaptureBPS = 4 << 30
	// EncodeBPS is the CPU rate at which image bytes are serialized into
	// the write stream; serialization touches every byte once.
	EncodeBPS = 1 << 30
	// hashBPS is the page-content hashing rate (an FNV-style streaming
	// hash) charged for pages whose cached hash was stale at capture
	// (Dedup checkpoints only).
	hashBPS = 2 << 30
	// dedupPerChunk is the chunk-table lookup/refcount cost per captured
	// page (Dedup checkpoints only).
	dedupPerChunk = 150 * sim.Nanosecond
	// segmentBytes is the pipelined save's segment size: with the
	// Pipeline option, segment k is encoded on the CPU while segment k-1
	// is on the disk. Without it the image is one segment (serial
	// encode-then-write).
	segmentBytes = 8 << 20
	// replTimeout bounds a fetch, or a replication's transfer once its
	// offer is answered; the unanswered offer itself gets twice this.
	replTimeout = 30 * sim.Second
	// backgroundBPS rate-limits an erasure-coding node's ctl.TierBackground
	// traffic (replication and shard distribution) through a shared token
	// bucket: half a gigabit link, so durability traffic never saturates a
	// link a pre-copy stream or foreground pod traffic is using.
	backgroundBPS = 64 << 20
)

// bytesCost returns the CPU time to process n bytes at bps.
func bytesCost(n int64, bps int64) sim.Duration {
	return sim.Duration(n * int64(sim.Second) / bps)
}

// Errors surfaced by agents.
var (
	ErrUnknownPod = errors.New("core: agent does not manage that pod")
	ErrBusy       = errors.New("core: operation already in progress for pod")
)

// Agent is the per-node checkpoint daemon. It runs outside any pod (so
// disabling a pod's communication never cuts the coordinator channel; see
// the paper's footnote 4) and executes the local steps of Fig. 2, plus
// the replication and fetch exchanges of the recovery extension.
type Agent struct {
	kern  *kernel.Kernel
	store *ckpt.Store
	// cpu is the daemon lane: control messages and every charge but bulk's.
	// bulk encodes an already-stored image for another node (replica
	// data, a served shard subset, parity), so a continue never queues
	// behind that encode (DESIGN §5).
	cpu  ctl.Serializer
	bulk ctl.Serializer
	tr   *trace.Tracer
	// A group leader's local and relays defer on cpu, behind
	// AgentMsgCost, the replies of its own member pods and the requests it
	// relays (relay.go), as its endpoint defers each message it receives.
	local  *ctl.Inbox[*wireMsg]
	relays *ctl.Inbox[relayed]

	pods  map[string]*zap.Pod
	table *ctl.Table
	// ep accepts the coordinator's and peers' connections and dials peers.
	ep *ctl.Endpoint[*wireMsg]

	// ec, when enabled, stripes committed deduplicated checkpoints M+R
	// across the first M+R ring peers instead of fully replicating them.
	ec ckpt.ECParams

	// peers is the replication ring: where committed checkpoints stream,
	// in preference order.
	peers []tcpip.AddrPort
	// rootConn, on a group leader, is the connection the latest group op
	// arrived on: the way up for its members' placement reports.
	rootConn msgSink

	// Stats counts agent activity.
	Stats AgentStats
}

// AgentStats counts agent activity.
type AgentStats struct {
	Aborts        uint64
	Replications  uint64
	ReplBytes     int64
	ReplFailures  uint64
	MigrationsOut uint64
	MigrationsIn  uint64

	// Erasure-coded durability: completed holder exchanges, the shard
	// bytes they moved, failed exchanges, and — on recovery targets —
	// reconstructions run and chunks decoded from parity.
	ECDistributions     uint64
	ECShardBytes        int64
	ECFailures          uint64
	Reconstructs        uint64
	ReconstructedChunks uint64
}

// savePhases names the phase spans of one save op.
type savePhases struct {
	round, quiesce, drain, capture, write string
}

var (
	stopAndCopyPhases = savePhases{quiesce: "quiesce", drain: "drain", capture: "capture", write: "write"}
	precopyPhases     = savePhases{round: "precopy-round", quiesce: "residual-stop", drain: "drain", capture: "capture", write: "write"}
	// A migration has no settle window of its own: the freeze runs
	// straight into the residual's capture.
	migratePhases = savePhases{round: "migrate-round", quiesce: "migrate-freeze", capture: "residual-capture", write: "residual-stream"}
)

// agentOp is the one record of a pod op: a checkpoint, a restart, or half
// of a migration. The lifecycle (busy key, timeout, idempotent teardown)
// lives in the embedded ctl.Op; the request, the pod and the domain state
// are here, so every step of the op takes the op alone.
//
// A checkpoint and a migrate-out run the same save loop (runPrecopy ->
// runStopAndCopy -> imageSaved), a restart and a migrate-in the same
// takeOver, and all four the same continue path (maybeFinishContinue).
// All four answer the first phase with <done>, success or failure.
// What a migration parameterises is data set once when the op starts: on
// the source the phase names and migrateTo — where every saved image
// streams before the loop moves on, and where the pod is handed over
// instead of resumed — and on the destination its kind (migrate.go).
type agentOp struct {
	*ctl.Op
	req    *wireMsg // the request that opened the op
	conn   msgSink  // where the op's replies go
	pod    *zap.Pod // the pod it saves, or from takeOver on the one it restored
	phases savePhases
	// precopy marks an abortable epoch: live rounds may precede the
	// freeze, the residual chains on the last of them, and nothing the
	// epoch saved survives an abort. Every migration is one.
	precopy   bool
	stoppedAt sim.Time
	captured  bool
	saveDone  bool
	contRecvd bool
	resumed   bool
	filterID  int

	// Pre-copy bookkeeping. The live rounds are abortable background
	// work: if the epoch fails mid-round, rounds' protections release, the
	// pod's dirty base rewinds to where it stood at the capture of kept,
	// the first image the op kept, and roundSeqs are struck from the
	// store — as if the epoch never happened.
	rounds    []*ckpt.LiveCapture
	kept      *ckpt.Image
	roundSeqs []int

	// roundPages is how many pages each round carried (residual last).
	// The rest is migrate-out bookkeeping: where the rounds stream and the
	// bytes the delta transfers actually moved.
	migrateTo  tcpip.AddrPort
	roundPages []int
	streamed   int64
	stream     *ctl.Op // in-flight round transfer, cancelled on abort

	// Migrate-in bookkeeping: held is the running merge of every round
	// adopted so far (roundSeqs lists them, for discard on abort), pending
	// the adopted rounds waiting to fold in, in arrival order. stoppedAt is
	// the source's freeze, where the downtime starts.
	held    *ckpt.Image
	merging bool
	pending []int

	// Trace spans: the op's own and, under it, the phase in progress.
	// Only two spans run beside a phase: round, a pre-copy or migrate
	// round that encloses the hash and dedup of the pages it carries, and
	// commit, which under copy-on-write opens at capture and runs beside
	// the released image's hash, dedup and write. Zero values are inert,
	// so paths that never begin a span may End it freely.
	span   trace.Span
	round  trace.Span
	phase  trace.Span
	commit trace.Span
}

// keep keeps img once the store has registered it (err nil), moving the
// pod's dirty base to its capture; the first image kept is the one an
// abort rewinds to.
func (op *agentOp) keep(img *ckpt.Image, err error) {
	if err == nil {
		ckpt.Keep(op.pod, img)
		if op.kept == nil {
			op.kept = img
		}
	}
}

// endSpans closes everything still open on the op (abort/failure paths).
func (op *agentOp) endSpans(args ...trace.Arg) {
	op.round.End(args...)
	op.phase.End(args...)
	op.commit.End(args...)
	op.span.End(args...)
}

// openPhase ends what slot — the op's round, phase or commit — still
// holds open and opens name there, under the op's span and naming its
// pod ahead of args.
func (a *Agent) openPhase(op *agentOp, slot *trace.Span, name string, args ...trace.Arg) {
	slot.End()
	var all [trace.MaxArgs]trace.Arg
	all[0] = trace.Str("pod", op.Key)
	n := 1 + copy(all[1:], args)
	*slot = a.tr.BeginChild(op.span.Context(), a.kern.Name(), trace.PhaseCat, name, all[:n]...)
}

// NewAgent starts an agent on the node, listening on its control port.
// Images are written to and read from store (the node's local disk in the
// cluster-file-system arrangement the paper assumes).
func NewAgent(kern *kernel.Kernel, store *ckpt.Store) (*Agent, error) {
	a := &Agent{
		kern:  kern,
		store: store,
		cpu:   ctl.Serializer{Engine: kern.Engine()},
		bulk:  ctl.Serializer{Engine: kern.Engine()},
		tr:    trace.FromEngine(kern.Engine()),
		pods:  make(map[string]*zap.Pod),
		table: ctl.NewTable(kern.Engine()),
	}
	a.local = ctl.NewInbox(&a.cpu, a.relayMemberMsg)
	a.relays = ctl.NewInbox(&a.cpu, a.relayTo)
	a.ep = ctl.NewEndpoint(kern.Stack(), msgCodec, ctl.Deliver(&a.cpu, AgentMsgCost, a.onMsg))
	if err := a.ep.Listen(DefaultControlPort); err != nil {
		return nil, fmt.Errorf("core: agent listen: %w", err)
	}
	return a, nil
}

// Addr returns the agent's control endpoint.
func (a *Agent) Addr() tcpip.AddrPort { return a.ep.Addr() }

// Manage registers a pod with the agent so coordinated operations can
// address it by name.
func (a *Agent) Manage(pod *zap.Pod) { a.pods[pod.Name()] = pod }

// Pod returns a managed pod by name, or nil.
func (a *Agent) Pod(name string) *zap.Pod { return a.pods[name] }

// SetPeers installs the replication ring: peers receive this agent's
// committed checkpoints, in order, when a checkpoint requests replicas.
func (a *Agent) SetPeers(peers []tcpip.AddrPort) { a.peers = peers }

// OpenOps returns the number of in-flight operations — the leak check
// recovery tests rely on.
func (a *Agent) OpenOps() int { return a.table.Len() }

// onMsg dispatches a control message once the lane has charged its
// receive cost, AgentMsgCost.
func (a *Agent) onMsg(c *ctl.Link[*wireMsg], m *wireMsg) {
	if m.Job != "" {
		a.onRelayMsg(c, m)
		return
	}
	switch m.Type {
	case msgCheckpoint:
		a.startCheckpoint(c, m)
	case msgContinue:
		a.handleContinue(c, m)
	case msgRestart:
		a.startRestart(c, m)
	case msgAbort:
		a.handleAbort(m)
	case msgPing:
		c.Send(&wireMsg{Type: msgPong, Seq: m.Seq, Load: a.liveLoad()})
	case msgReplOffer:
		a.handleOffer(c, m)
	case msgReplWant:
		a.handleWant(c, m)
	case msgReplData:
		a.handleData(c, m)
	case msgReplDone:
		a.handleDone(c, m)
	case msgFetch:
		a.handleFetch(c, m)
	case msgFetchPull:
		a.handleFetchPull(c, m)
	case msgCommDisabled, msgDone, msgContinueDone, msgReplicated:
		// Protocol replies arriving at an agent are group members
		// reporting to their leader (this node) — aggregate them.
		a.relayMemberMsg(m)
	}
}

// liveLoad counts live managed pods — the agent's placement load signal.
func (a *Agent) liveLoad() int {
	n := 0
	for _, p := range a.pods {
		if !p.Destroyed() {
			n++
		}
	}
	return n
}

// fail reports an operation failure for a pod, echoing the request's
// trace context so the error lands in the right span tree.
func (a *Agent) fail(c msgSink, t msgType, m *wireMsg, err error) {
	c.Send(&wireMsg{Type: t, Seq: m.Seq, Pod: m.Pod, Err: err.Error(), ctx: m.ctx})
}

// failOp fails a pod op and reports the error with <done>, the reply its
// requester is waiting on whatever the op's kind.
func (a *Agent) failOp(op *agentOp, err error) {
	op.Fail(err)
	op.conn.Send(&wireMsg{Type: msgDone, Seq: op.Seq, Pod: op.Key, Err: err.Error(), ctx: op.span.Context()})
}

// beginPodOp registers a checkpoint/restart op for the pod with the
// shared rollback-on-failure hook: remove the filter, resume the pod,
// close spans. Every failure path (local error, coordinator abort,
// node-failure teardown) funnels through ctl.Op.Fail exactly once.
func (a *Agent) beginPodOp(kind string, m *wireMsg, c msgSink) (*agentOp, error) {
	o, err := a.table.Begin(kind, m.Pod, m.Seq)
	if err != nil {
		return nil, ErrBusy
	}
	op := &agentOp{Op: o, req: m, conn: c}
	o.Data = op
	o.OnFail(func(_ *ctl.Op, err error) {
		a.Stats.Aborts++
		if op.filterID != 0 {
			a.kern.Stack().Filter().RemoveRule(op.filterID)
			op.filterID = 0
		}
		// A migration round transfer in flight when the op dies would
		// otherwise sit out its full replication timeout (the far node
		// may be dead and answer nothing).
		if op.stream != nil {
			s := op.stream
			op.stream = nil
			if s.Active() {
				s.Fail(err)
			}
		}
		// Discard the partial pre-copy epoch: release the rounds' write
		// protections (writes stop faulting; a round that landed was
		// released already, and a second Release is a no-op), rewind the
		// dirty base past the images being thrown away, and strike the
		// uncommitted round images from the store.
		for _, lc := range op.rounds {
			lc.Release()
		}
		if op.precopy && op.kept != nil {
			ckpt.Rewind(op.pod, op.kept)
		}
		if len(op.roundSeqs) > 0 {
			a.store.Discard(op.Key, op.roundSeqs...)
		}
		// Resolve the pod at failure time: a restart may have replaced it
		// since the op began. A migration's destination destroys the pod
		// it restored instead: the source still holds the authoritative
		// copy and resumes it on its own abort path.
		if p := a.pods[op.Key]; p != nil && !p.Destroyed() && p.Stopped() {
			if op.migratingIn() {
				p.Destroy()
			} else {
				p.Resume()
			}
		}
		op.endSpans(trace.Str("outcome", "aborted"))
	})
	return op, nil
}

// startCheckpoint runs the Agent steps of Fig. 2 (or Fig. 4 when
// optimized): disable communication, stop the pod, save its state, report
// done. With PrecopyRounds the stop is preceded by live pre-copy rounds
// that shrink the stopped work to the residual dirty set. A checkpoint
// whose Repl names a peer is a migration's source (migrate.go): a pre-copy
// epoch, zero rounds included, whose every saved image streams there.
func (a *Agent) startCheckpoint(c msgSink, m *wireMsg) {
	pod, ok := a.pods[m.Pod]
	if !ok || pod.Destroyed() {
		a.fail(c, msgDone, m, ErrUnknownPod)
		return
	}
	kind := "checkpoint"
	if m.Repl != nil {
		kind = "migrate-out"
	}
	op, err := a.beginPodOp(kind, m, c)
	if err != nil {
		a.fail(c, msgDone, m, err)
		return
	}
	op.pod = pod
	// Adopt the coordinator's op: the local span tree becomes a branch
	// of the distributed checkpoint or migration.
	if m.Repl != nil {
		op.precopy, op.phases = true, migratePhases
		op.migrateTo = tcpip.AddrPort{Addr: m.Repl.PeerIP, Port: m.Repl.PeerPort}
		a.Stats.MigrationsOut++
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.migrate-out",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)),
			trace.Str("to", op.migrateTo.String()))
	} else {
		op.phases = stopAndCopyPhases
		if m.PrecopyRounds > 0 {
			op.precopy, op.phases = true, precopyPhases
		}
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.checkpoint",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	}
	if op.precopy {
		a.runPrecopy(op, 0, 0, 0)
		return
	}
	a.runStopAndCopy(op, 0)
}

// runPrecopy drives one live pre-copy round (round-numbered from 0) and
// recurses, or hands off to the residual stop-and-copy once the policy
// says another round is not worth taking. The pod runs — and keeps
// communicating — throughout; each round captures the pages dirtied since
// the previous round, write-protecting the pod's memory until it lands,
// and streams it to the store as an incremental image chained on baseSeq
// (0 = this round is the full base of a fresh chain). A migration then streams the round to the
// destination, and the next round starts only once it is adopted there —
// the stream is the pacing, exactly like pre-copy against a slow disk.
func (a *Agent) runPrecopy(op *agentOp, round, prevPages, baseSeq int) {
	if op.Aborted() {
		return
	}
	m, pod := op.req, op.pod
	if round == 0 && m.Incremental {
		// Chain round 0 onto the newest stored checkpoint, if it is one
		// this epoch's form can chain onto: the dirty base is the last
		// kept capture, which is exactly what the store last registered.
		if s, ok := a.store.LatestSeq(m.Pod); ok && a.store.HasBase(m.Pod, s, m.Dedup) {
			baseSeq = s
		}
	}
	full := baseSeq == 0
	candidate := pod.DirtyPages()
	if full {
		candidate = pod.ResidentPages()
	}
	converged := round >= m.PrecopyRounds ||
		(m.PrecopyThresholdPages > 0 && candidate <= m.PrecopyThresholdPages) ||
		(m.PrecopyMinGain > 0 && round > 0 &&
			float64(candidate) > (1-m.PrecopyMinGain)*float64(prevPages))
	if converged {
		a.runStopAndCopy(op, baseSeq)
		return
	}

	// Rounds occupy the sequence block below the residual's m.Seq.
	seqR := m.Seq - m.PrecopyRounds + round
	a.openPhase(op, &op.round, op.phases.round,
		trace.Int("round", int64(round)), trace.Int("pages", int64(candidate)))
	lc, err := ckpt.CaptureLive(pod, seqR, ckpt.Options{Incremental: !full, Hashes: m.Dedup, BaseSeq: baseSeq, Store: a.store})
	if err != nil {
		a.failOp(op, err)
		return
	}
	op.rounds = append(op.rounds, lc)
	op.roundPages = append(op.roundPages, candidate)
	captureBytes := lc.Image.MemoryBytes()
	// The capture is instant; its copy costs CPU while the pod runs
	// (writes to pages of a not-yet-released round take faults — the
	// concurrency overhead of §5.2, charged by the kernel).
	a.cpu.Do(CaptureCost+bytesCost(captureBytes, CaptureBPS), func() {
		if op.Aborted() {
			return
		}
		a.planImage(op, lc.Image, func(plan *ckpt.SavePlan, err error) {
			if op.Aborted() {
				return
			}
			if err != nil {
				a.failOp(op, err)
				return
			}
			op.roundSeqs = append(op.roundSeqs, seqR)
			a.streamPlan(op, plan.TotalBytes, func() {
				a.streamRound(op, seqR, func() {
					lc.Release()
					op.round.End(trace.Int("bytes", plan.TotalBytes))
					a.runPrecopy(op, round+1, candidate, seqR)
				})
			})
		})
	})
}

// runStopAndCopy is the classic freeze-and-save: disable communication,
// stop the pod, capture, plan, write, report done. Under a pre-copy
// epoch it saves only the residual dirty set, chained on the last round
// at baseSeq. The freeze window (a migration's downtime clock) starts at
// quiescence, op.stoppedAt.
func (a *Agent) runStopAndCopy(op *agentOp, baseSeq int) {
	m, pod := op.req, op.pod
	incremental := m.Incremental
	if op.precopy {
		// The residual is incremental on the last round (or on the
		// stored base when the policy skipped every round); a fresh
		// chain whose round 0 never ran stays a full save.
		incremental = baseSeq > 0
	}
	if incremental {
		// An increment needs a base this store can resolve, stored in the
		// form this save uses. A pod's first checkpoint has none (nor has
		// one whose predecessor was aborted, discarded, or saved in the
		// other form): capture full instead of chaining to an image no
		// restore or replication could find.
		base := baseSeq
		if base == 0 {
			base = m.Seq - 1
		}
		if !a.store.HasBase(m.Pod, base, m.Dedup) {
			incremental, baseSeq = false, 0
		}
	}
	a.openPhase(op, &op.phase, op.phases.quiesce)

	// Step 1: configure the filter to silently drop all pod traffic.
	a.cpu.Do(filterCost, func() {
		if op.Aborted() {
			return
		}
		op.filterID = a.kern.Stack().Filter().AddDropAddr(pod.IP())
		a.tr.InstantCtx(op.span.Context(), a.kern.Name(), "core", "filter.install", trace.Str("pod", m.Pod))
		if m.Optimized && !m.COW {
			// Fig. 4: notify as soon as communication is disabled,
			// without waiting for the local save.
			op.conn.Send(&wireMsg{Type: msgCommDisabled, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context()})
		}
		// Step 2: stop the pod's processes and take the local checkpoint.
		pod.Stop(func() {
			if op.Aborted() {
				return
			}
			op.stoppedAt = a.kern.Engine().Now()
			op.phase.End()
			// In Cruz the filter drops in-flight pod traffic rather than
			// flushing it; the "drain" phase is the settle window between
			// full quiesce and the start of the state copy (the serialized
			// in-kernel walk of process and socket structures).
			if op.phases.drain != "" {
				a.openPhase(op, &op.phase, op.phases.drain, trace.Str("mode", "drop"))
			}
			// The capture window scales with the bytes copied (full:
			// resident pages; incremental: dirty pages only).
			pages := pod.ResidentPages()
			if incremental {
				pages = pod.DirtyPages()
			}
			op.roundPages = append(op.roundPages, pages)
			captureBytes := int64(pages) * mem.PageSize
			a.cpu.Do(CaptureCost+bytesCost(captureBytes, CaptureBPS), func() {
				if op.Aborted() {
					return
				}
				a.openPhase(op, &op.phase, op.phases.capture)
				img, err := ckpt.Capture(pod, m.Seq, ckpt.Options{Incremental: incremental, Hashes: m.Dedup, BaseSeq: baseSeq, Store: a.store})
				if err != nil {
					a.failOp(op, err)
					return
				}
				op.phase.End(trace.Int("mem_bytes", img.MemoryBytes()))
				op.captured = true
				if m.COW {
					// §5.2 copy-on-write optimization: the captured copy
					// is consistent the moment it exists; the pod may
					// resume (once the coordinator confirms every node
					// has captured) while the image write proceeds from
					// the captured image.
					a.openPhase(op, &op.commit, "commit", trace.Str("mode", "cow"))
					op.conn.Send(&wireMsg{Type: msgCommDisabled, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context()})
					a.maybeFinishContinue(op)
				}
				a.planAndWrite(op, img)
			})
		})
	})
}

// planImage turns a captured image into a store plan — monolithic blob,
// or (Dedup) hash + chunk-table dedup charged as their own phases — and
// hands the plan to finishPlan. Shared by the residual stop-and-copy and
// every pre-copy round. The store registers the image as it plans it.
func (a *Agent) planImage(op *agentOp, img *ckpt.Image, finishPlan func(*ckpt.SavePlan, error)) {
	if !op.req.Dedup {
		plan, err := a.store.PlanSave(img)
		op.keep(img, err)
		finishPlan(plan, err)
		return
	}
	// Hash phase: only pages written since the last hashing capture had
	// a stale cached hash; they alone cost CPU here.
	a.openPhase(op, &op.phase, "hash")
	a.cpu.Do(bytesCost(int64(img.FreshHashes)*mem.PageSize, hashBPS), func() {
		if op.Aborted() {
			return
		}
		op.phase.End(trace.Int("fresh_pages", int64(img.FreshHashes)))
		var pages int64
		for i := range img.Processes {
			pages += int64(img.Processes[i].Memory.NumPages())
		}
		a.openPhase(op, &op.phase, "dedup")
		a.cpu.Do(sim.Duration(pages)*dedupPerChunk, func() {
			if op.Aborted() {
				return
			}
			plan, err := a.store.PlanDedupSave(img)
			op.keep(img, err)
			if err == nil {
				op.phase.End(
					trace.Int("new_chunks", int64(plan.Stats.NewChunks)),
					trace.Int("dup_chunks", int64(plan.Stats.DupChunks)))
			} else {
				op.phase.End(trace.Str("err", err.Error()))
			}
			finishPlan(plan, err)
		})
	})
}

// planAndWrite plans the residual image, drives the remaining disk bytes
// through streamPlan (then to the destination, for a migration) and
// completes in imageSaved.
func (a *Agent) planAndWrite(op *agentOp, img *ckpt.Image) {
	a.planImage(op, img, func(plan *ckpt.SavePlan, err error) {
		if op.Aborted() {
			return
		}
		if err != nil {
			a.failOp(op, err)
			return
		}
		if op.precopy {
			// Until the coordinator commits, the residual is part of the
			// abortable epoch like the rounds before it.
			op.roundSeqs = append(op.roundSeqs, op.Seq)
		}
		a.openPhase(op, &op.phase, op.phases.write)
		a.streamPlan(op, plan.TotalBytes, func() {
			a.streamRound(op, op.Seq, func() { a.imageSaved(op, plan) })
		})
	})
}

// streamPlan drives total bytes through the store's disk, invoking
// complete once the last segment lands. Without the request's Pipeline the
// bytes go as one segment (serial encode, then write); with it,
// SegmentBytes-sized segments stream so segment k is encoded on the daemon
// CPU while segment k-1 is on the disk, and contiguous segments pay the
// positioning latency once.
func (a *Agent) streamPlan(op *agentOp, total int64, complete func()) {
	disk := a.store.Disk()
	segSize := total
	if op.req.Pipeline && segmentBytes < total {
		segSize = segmentBytes
	}
	if total <= 0 {
		complete()
		return
	}
	var issued, landed int64
	var issue func()
	issue = func() {
		if op.Aborted() || issued >= total {
			return
		}
		seg := segSize
		if total-issued < seg {
			seg = total - issued
		}
		issued += seg
		a.cpu.Do(bytesCost(seg, EncodeBPS), func() {
			if op.Aborted() {
				return
			}
			disk.WriteContig(seg, func() {
				if op.Aborted() {
					return
				}
				landed += seg
				if landed == total {
					complete()
				}
			})
			issue()
		})
	}
	issue()
}

// imageSaved completes the save once the residual is on disk (and, for a
// migration, in the destination's store). A migration hands the pod over:
// one agent-to-agent hop keeps the freeze path short. A checkpoint reports
// <done>, kicks compaction/replication, and finishes or hands over to the
// continue path.
func (a *Agent) imageSaved(op *agentOp, plan *ckpt.SavePlan) {
	m, total := op.req, plan.TotalBytes
	op.phase.End(trace.Int("bytes", total))
	op.saveDone = true
	if op.migrating() {
		// The handover is the destination's continue, FrozeAt starting its
		// downtime clock; this op's own continue is the commit.
		cc, err := a.ep.Dial(op.migrateTo)
		if err != nil {
			a.failOp(op, err)
			return
		}
		cc.Send(&wireMsg{Type: msgContinue, Seq: m.Seq, Pod: m.Pod,
			FrozeAt: op.stoppedAt, ctx: op.span.Context()})
		return
	}
	// Step 3: send <done>.
	op.conn.Send(&wireMsg{
		Type:          msgDone,
		Seq:           m.Seq,
		Pod:           m.Pod,
		LocalDuration: a.kern.Engine().Now().Sub(op.Started()),
		ImageBytes:    total,
		ctx:           op.span.Context(),
	})
	if plan.CompactAfter {
		// GC off the critical path: fold the incremental chain once
		// the checkpoint is reported.
		a.store.Compact(m.Pod, nil)
	}
	if m.Replicas > 0 || a.ec.Enabled() {
		// Stream the committed image's durability copies — erasure-
		// coded shards or full replicas — off the critical path of
		// the coordinated cycle but inside the checkpoint's span tree.
		a.startDurability(m.Pod, m.Seq, m.Replicas, m.Dedup, op.conn, op.span.Context())
	}
	if op.resumed {
		// COW: the pod resumed before the write finished; the
		// operation completes here.
		op.endSpans()
		op.Finish()
		return
	}
	if !op.commit.Active() {
		a.openPhase(op, &op.commit, "commit")
	}
	a.maybeFinishContinue(op)
}

// handleContinue implements Steps 5-7: resume the pod, re-enable its
// communication, acknowledge. Under the Fig. 4 optimization the continue
// may arrive before the local save completes; the pod then resumes the
// moment its own save is done. A migration's halves take the same path
// (migrate.go): the source's continue is the commit, which destroys its
// copy instead, and the destination's is the source's handover, which
// restarts the pod here once the pre-merge drains.
func (a *Agent) handleContinue(c msgSink, m *wireMsg) {
	op := ctl.Find[agentOp](a.table, m.Pod)
	if op == nil || op.Seq != m.Seq || (a.pods[m.Pod] == nil && !op.migratingIn()) {
		if m.FrozeAt == 0 { // a handover whose migrate-in is gone gets no answer
			a.fail(c, msgContinueDone, m, ErrUnknownPod)
		}
		return
	}
	op.contRecvd = true
	if op.migratingIn() {
		op.stoppedAt = m.FrozeAt
		a.migrateMerge(op)
		return
	}
	a.maybeFinishContinue(op)
}

// maybeFinishContinue resumes once the coordinator's permission is in
// and the local state is safe: fully saved, or — under copy-on-write —
// merely captured (the write continues from the captured image).
func (a *Agent) maybeFinishContinue(op *agentOp) {
	localSafe := op.saveDone || (op.req.COW && op.captured)
	if !localSafe || !op.contRecvd || op.resumed || op.Aborted() {
		return
	}
	op.resumed = true
	t0 := a.kern.Engine().Now()
	a.cpu.Do(filterCost, func() {
		if op.migrating() {
			a.handedOver(op)
			return
		}
		if op.migratingIn() {
			a.tookOver(op)
			return
		}
		op.pod.Resume()
		a.kern.Stack().Filter().RemoveRule(op.filterID)
		op.filterID = 0
		a.tr.InstantCtx(op.span.Context(), a.kern.Name(), "core", "filter.remove", trace.Str("pod", op.Key))
		op.commit.End()
		seq := op.Seq
		if op.saveDone {
			op.endSpans()
			op.Finish()
		}
		// op.span.Context() stays valid after endSpans: the reply is the
		// span's last causal act.
		op.conn.Send(&wireMsg{
			Type:            msgContinueDone,
			Seq:             seq,
			Pod:             op.Key,
			LocalDuration:   a.kern.Engine().Now().Sub(t0) + AgentMsgCost,
			BlockedDuration: a.kern.Engine().Now().Sub(op.stoppedAt),
			ctx:             op.span.Context(),
		})
	})
}

// startRestart performs the local restart: disable communication for the
// pod's address before restoring (so restored TCP state cannot transmit
// prematurely, §5), load and restore the image, report done. A pod of the
// same name still running on this node (recovery restarts the whole job,
// including survivors) is destroyed only after the image loads, so a
// missing image leaves the application untouched. The restored pod
// resumes on <continue>. A restart whose Repl names a peer is a
// migration's destination (migrate.go): it only arms the migrate-in, whose
// image arrives round by round from that source.
func (a *Agent) startRestart(c msgSink, m *wireMsg) {
	kind := "restart"
	if m.Repl != nil {
		kind = "migrate-in"
	}
	op, err := a.beginPodOp(kind, m, c)
	if err != nil {
		a.fail(c, msgDone, m, err)
		return
	}
	if op.migratingIn() {
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.migrate-in",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
		return
	}
	op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.restart",
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	a.openPhase(op, &op.phase, "load")

	a.store.Load(m.Pod, m.Seq, true, op.span.Context(), func(img *ckpt.Image, err error) {
		if op.Aborted() {
			return
		}
		if err != nil {
			a.failOp(op, err)
			return
		}
		a.openPhase(op, &op.phase, "restore")
		a.takeOver(op, img, func() {
			op.phase.End(trace.Int("mem_bytes", img.MemoryBytes()))
			a.openPhase(op, &op.commit, "commit")
			c.Send(&wireMsg{
				Type:          msgDone,
				Seq:           m.Seq,
				Pod:           m.Pod,
				LocalDuration: a.kern.Engine().Now().Sub(op.Started()),
				ImageBytes:    img.MemoryBytes(),
				ctx:           op.span.Context(),
			})
		})
	})
}

// takeOver makes this node the pod's home from a loaded image, in one CPU
// step — the restart path's first; its second is the continue path's
// resume. Install the drop filter for the pod's address first (restored
// TCP state re-issues its unacknowledged segments immediately, which must
// not escape before the commit), retire any live instance of the pod here
// — the image is loadable, so it is superseded — restore, and register the
// new pod as the op's, still stopped, before next runs: the local state is
// now safe, so the continue path may resume it. The filter rule goes into
// the op's filterID slot before anything can fail, so the op's rollback
// removes it.
func (a *Agent) takeOver(op *agentOp, img *ckpt.Image, next func()) {
	a.cpu.Do(filterCost+CaptureCost, func() {
		if op.Aborted() {
			return
		}
		op.filterID = a.kern.Stack().Filter().AddDropAddr(img.Net.IP)
		if old := a.pods[op.Key]; old != nil && !old.Destroyed() {
			old.Destroy()
		}
		pod, err := ckpt.Restore(a.kern, img)
		if err != nil {
			a.failOp(op, err)
			return
		}
		a.pods[op.Key], op.pod, op.saveDone = pod, pod, true
		next()
	})
}

// handleAbort rolls back an in-progress operation: remove the filter,
// resume the pod, forget the op. Any image already written stays in the
// store but is never committed by the coordinator. The pod key covers
// every pod-scoped op kind — checkpoint, restart, migrate-out and
// migrate-in all register their rollback through beginPodOp.
func (a *Agent) handleAbort(m *wireMsg) {
	if op := ctl.Find[agentOp](a.table, m.Pod); op != nil {
		op.Fail(ErrAborted)
	}
}
