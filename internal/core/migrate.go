package core

import (
	"errors"
	"fmt"
	"slices"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// Live migration (the paper's §4.2 VIF/IP/MAC move, composed with the
// pre-copy and delta-replication machinery into a first-class primitive).
//
// The protocol has three parties: the coordinator C, the source agent S
// and the destination agent D.
//
//	C -> D  migrate-target       arm a migrate-in op (restore-on-arrival)
//	C -> S  migrate              start the pre-copy stream
//	S:      per live round: COW capture, local save, offer/want/data
//	        delta transfer into D's store; D pre-merges each round as it
//	        lands, while the pod keeps running on S
//	S:      on convergence: filter + freeze, capture the residual,
//	        save + stream it, then hand over
//	S -> D  migrate-restore      residual is in D's store; FrozeAt stamps
//	                             the start of the downtime window
//	D:      merge residual, filter, restore (VIF + TCP state install,
//	        gratuitous ARP last), resume — downtime ends here
//	D -> C  migrate-done         downtime report; commit point
//	C -> S  migrate-commit       roll forward: destroy the source copy
//	S -> C  migrate-src-done     rounds/bytes report; op complete
//
// Abort at any point before migrate-done rolls back like an aborted
// pre-copy checkpoint: S releases the COW rounds, re-marks their pages
// dirty, discards the uncommitted round images and resumes the pod; D
// discards whatever rounds it adopted. After migrate-done the migration
// only rolls forward — the pod is already live on D, so a late failure
// of S merely leaves its (filtered, frozen) copy for Destroy.

// ErrNoMigration reports an abort request with no migration in flight.
var ErrNoMigration = errors.New("core: no migration in flight for job")

// MigrateOptions tunes one live migration.
type MigrateOptions struct {
	// Incremental chains round 0 onto the source's newest stored
	// checkpoint; the delta protocol then ships only what the
	// destination's store is missing.
	Incremental bool
	// Dedup stores and streams the rounds content-addressed.
	Dedup bool
	// Pipeline segments the local round saves (encode ∥ write).
	Pipeline bool
	// Precopy bounds the live rounds. MaxRounds == 0 degenerates to
	// stop-and-copy migration: one freeze covering the whole image — the
	// baseline the ablation compares against.
	Precopy PrecopyConfig
}

// MigrationResult reports one completed migration.
type MigrationResult struct {
	Pod  string
	From tcpip.AddrPort
	To   tcpip.AddrPort
	// Seq is the image sequence the migration committed at the
	// destination (the residual at the top of the round chain).
	Seq int
	// Rounds is how many live pre-copy rounds ran before the freeze.
	Rounds int
	// RoundPages is the per-round streamed page counts, residual last —
	// the convergence curve.
	RoundPages []int
	// BytesStreamed is what the delta transfers actually moved.
	BytesStreamed int64
	// Downtime is the application-visible gap: source freeze to first
	// instant the pod is live (resumed, filter removed, ARP announced)
	// on the destination.
	Downtime sim.Duration
	// Latency is the whole operation, first message to commit.
	Latency sim.Duration
	// Messages counts control/stream messages on the coordinator's
	// source and destination connections.
	Messages int
}

// migration is what a rootOp of kind "migrate" carries: the two parties
// and what they reported. Wait-set "restored" is the destination's
// takeover, "cleared" the source's roll-forward.
type migration struct {
	pod      string
	src, dst tcpip.AddrPort

	downtime   sim.Duration
	streamed   int64
	roundPages []int
}

// Migrate moves one pod of the job to the target node with pre-copy
// streaming: the pod runs (and communicates) through the rounds and
// freezes only for the residual dirty set plus address takeover. On
// success the job's member record is re-homed to the target, so later
// checkpoints and recoveries address the pod there.
func (c *Coordinator) Migrate(job *Job, pod string, target tcpip.AddrPort, opts MigrateOptions, done func(*MigrationResult, error)) {
	idx := slices.IndexFunc(job.Members, func(m Member) bool { return m.Pod == pod })
	if idx < 0 {
		done(nil, fmt.Errorf("%w: %s", ErrUnknownPod, pod))
		return
	}
	src := job.Members[idx].Agent
	if src == target {
		done(nil, fmt.Errorf("core: pod %s already lives on %s", pod, addrKey(target)))
		return
	}
	// Like a pre-copy checkpoint, the migration consumes a block of
	// sequence numbers; only the residual at seq survives commit.
	op, err := c.takeSeqs("migrate", job, opts.Precopy.MaxRounds)
	if err != nil {
		done(nil, err)
		return
	}
	seq, parties := op.Seq, []tcpip.AddrPort{src, target}
	mig := &migration{pod: pod, src: src, dst: target}
	op.mig = mig
	op.span = c.tr.BeginOp(c.stack.Name(), "core", "migrate",
		trace.Str("job", job.Name), trace.Str("pod", pod),
		trace.Int("seq", int64(seq)),
		trace.Str("from", addrKey(src)), trace.Str("to", addrKey(target)))
	op.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			op.span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		// Commit: the pod lives on the target now. Re-home the member so
		// every later coordinated op addresses it there, and record the
		// target as holder of the migrated image chain.
		job.Members[idx].Agent = target
		c.addHolder(pod, seq, target)
		rounds := max(len(mig.roundPages)-1, 0)
		op.span.End(trace.Int("rounds", int64(rounds)),
			trace.Int("downtime_us", int64(mig.downtime/sim.Microsecond)))
		done(&MigrationResult{
			Pod: pod, From: src, To: target, Seq: seq,
			Rounds:        rounds,
			RoundPages:    mig.roundPages,
			BytesStreamed: mig.streamed,
			Downtime:      mig.downtime,
			Latency:       c.stack.Engine().Now().Sub(op.Started()),
			Messages:      c.msgCount(parties) - op.msgBase,
		}, nil)
	})
	op.Expect("restored", pod)
	op.Expect("cleared", pod)
	c.connectAddrs(parties, func(cerr error) {
		if cerr != nil {
			op.Fail(cerr)
			return
		}
		if !op.Active() {
			return
		}
		op.msgBase = c.msgCount(parties)
		// Arm the destination first so its migrate-in op exists before
		// the first round's delta transfer can land.
		c.sendOrFail(op, target, &wireMsg{Type: msgMigrateTarget, Seq: seq, Pod: pod, ctx: op.span.Context()})
		c.sendOrFail(op, src, &wireMsg{
			Type:                  msgMigrate,
			Seq:                   seq,
			Pod:                   pod,
			ctx:                   op.span.Context(),
			Incremental:           opts.Incremental,
			Dedup:                 opts.Dedup,
			Pipeline:              opts.Pipeline,
			PrecopyRounds:         opts.Precopy.MaxRounds,
			PrecopyThresholdPages: opts.Precopy.DirtyThresholdPages,
			PrecopyMinGain:        opts.Precopy.MinRoundGain,
			Repl:                  &replPayload{PeerIP: target.Addr, PeerPort: target.Port},
		})
	})
	c.armTimeout(op)
}

// AbortMigration aborts the job's in-flight migration, if any: both
// agents roll back and the pod keeps running on the source.
func (c *Coordinator) AbortMigration(job string) error {
	op := ctl.Find[rootOp](c.table, job)
	if op == nil || op.mig == nil {
		return ErrNoMigration
	}
	op.Fail(ErrAborted)
	return nil
}

// handleMigrateReply takes the two reports of a migration. <migrate-done>
// is the commit point: the pod is live on the destination, so record the
// downtime and tell the source to roll forward. <migrate-src-done>
// completes it: the source destroyed its copy and reported the stream
// accounting.
func (c *Coordinator) handleMigrateReply(op *rootOp, m *wireMsg) {
	mig := op.mig
	if mig == nil {
		return
	}
	c.tr.InstantCtx(op.span.Context(), c.stack.Name(), "core", "recv."+m.Type.String(),
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	if m.Err != "" {
		op.Fail(fmt.Errorf("%w: pod %s: %s", ErrAgentFailed, m.Pod, m.Err))
		return
	}
	if m.Type == msgMigrateDone {
		if op.Arrive("restored", m.Pod) {
			mig.downtime = m.BlockedDuration
			c.sendOrFail(op, mig.src, &wireMsg{Type: msgMigrateCommit, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context()})
		}
		return
	}
	if !op.Arrive("cleared", m.Pod) {
		return
	}
	mig.roundPages = m.RoundPages
	mig.streamed = m.ImageBytes
	if op.Cleared("restored") {
		op.Finish()
	}
}

// ---------------------------------------------------------------------
// Source agent side.

// startMigrateOut begins the source half: pre-copy rounds streamed into
// the destination's store while the pod runs, then the frozen residual
// and the handover — the checkpoint save loop (agent.go) with migrateTo
// set, so each saved image also crosses to the destination.
func (a *Agent) startMigrateOut(c msgSink, m *wireMsg) {
	pod, ok := a.pods[m.Pod]
	if !ok || pod.Destroyed() {
		a.fail(c, msgMigrateSrcDone, m, ErrUnknownPod)
		return
	}
	if m.Repl == nil {
		a.fail(c, msgMigrateSrcDone, m, fmt.Errorf("core: migrate without a destination"))
		return
	}
	op, err := a.beginPodOp("migrate-out", m, c)
	if err != nil {
		a.fail(c, msgMigrateSrcDone, m, err)
		return
	}
	op.failType, op.phases, op.precopy = msgMigrateSrcDone, migratePhases, true
	op.migrateTo = tcpip.AddrPort{Addr: m.Repl.PeerIP, Port: m.Repl.PeerPort}
	a.Stats.MigrationsOut++
	op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.migrate-out",
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)),
		trace.Str("to", addrKey(op.migrateTo)))
	// Round-0 base negotiation: a non-incremental migration would open
	// with a full round, but if the destination already replicates this
	// pod's newest stored checkpoint — background durability put it
	// there — round 0 can stream just the delta against that shared
	// base, provided it is stored in the form the rounds will be (the
	// destination's replica has the form of the copy here). One query/ack
	// round trip, off the freeze path (the pod is still live).
	if !m.Incremental {
		if base, ok := a.store.LatestSeq(m.Pod); ok && a.store.HasBase(m.Pod, base, m.Dedup) {
			cc, cerr := a.peerConn(op.migrateTo)
			if cerr == nil {
				op.baseQuery = m
				cc.send(&wireMsg{Type: msgMigrateBase, Seq: base, Pod: m.Pod, ctx: op.span.Context()})
				return
			}
		}
	}
	a.runPrecopy(c, m, pod, op, 0, 0, 0)
}

// handleMigrateBase is the destination side of the round-0 base
// negotiation: report whether this store holds the source's newest
// checkpoint chain (Incremental carries the verdict on the ack).
func (a *Agent) handleMigrateBase(c *ctlConn, m *wireMsg) {
	c.send(&wireMsg{Type: msgMigrateBaseAck, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx,
		Incremental: a.store.HasSeq(m.Pod, m.Seq)})
}

// handleMigrateBaseAck resumes the deferred migrate-out: if the
// destination holds the queried base, round 0 streams incrementally
// against it; otherwise the full opening round proceeds as before.
func (a *Agent) handleMigrateBaseAck(m *wireMsg) {
	op := ctl.Find[agentOp](a.table, m.Pod)
	if op == nil || op.baseQuery == nil || op.Aborted() {
		return
	}
	mq := op.baseQuery
	op.baseQuery = nil
	pod := a.pods[m.Pod]
	if pod == nil || pod.Destroyed() {
		op.Fail(ErrUnknownPod)
		a.fail(op.conn, msgMigrateSrcDone, mq, ErrUnknownPod)
		return
	}
	baseSeq := 0
	if m.Incremental {
		baseSeq = m.Seq
		a.tr.InstantCtx(op.span.Context(), a.kern.Name(), "core", "migrate.base-reuse",
			trace.Str("pod", m.Pod), trace.Int("base", int64(baseSeq)))
	}
	a.runPrecopy(op.conn, mq, pod, op, 0, 0, baseSeq)
}

// migrating reports whether the save op is a migrate-out.
func (op *agentOp) migrating() bool { return op.migrateTo.Port != 0 }

// streamRound pushes the just-saved image into a migration's destination
// store through the chunk exchange, invoking next once the destination has
// adopted it. A checkpoint has nowhere to stream: next runs at once.
func (a *Agent) streamRound(c msgSink, m *wireMsg, op *agentOp, seq int, next func()) {
	if !op.migrating() {
		next()
		return
	}
	if op.Aborted() {
		return
	}
	ro := a.replicateOn(&replOp{pod: m.Pod, peer: op.migrateTo, tier: ctl.TierStream, onDone: func(n int64, rerr error) {
		op.stream = nil
		if op.Aborted() {
			return
		}
		if rerr != nil {
			a.failSave(c, m, op, rerr)
			return
		}
		op.streamed += n
		next()
	}}, seq, op.span.Context())
	if ro != nil && ro.Active() {
		op.stream = ro
	}
}

// handleMigrateCommit rolls the source forward: the pod is live on the
// destination, so the frozen source copy and its uncommitted round
// images go away. The round chain now lives (only) in the destination's
// store, which is exactly where a later restart of the pod will run.
func (a *Agent) handleMigrateCommit(c msgSink, m *wireMsg) {
	op := ctl.Find[agentOp](a.table, m.Pod)
	if op == nil || op.Seq != m.Seq {
		return
	}
	pod := a.pods[m.Pod]
	a.cpu.Do(filterCost, func() {
		for _, lc := range op.rounds {
			lc.Release()
		}
		if pod != nil && !pod.Destroyed() {
			pod.Destroy()
		}
		if op.filterID != 0 {
			a.kern.Stack().Filter().RemoveRule(op.filterID)
			op.filterID = 0
		}
		if len(op.roundSeqs) > 0 {
			a.store.Discard(m.Pod, op.roundSeqs...)
			op.roundSeqs = nil
		}
		// Clear the rollback state before Finish: the op completes
		// cleanly, nothing must re-mark pages of a destroyed pod.
		op.rounds = nil
		op.redirty = nil
		roundPages := op.roundPages
		streamed := op.streamed
		op.endSpans(trace.Str("outcome", "migrated"))
		op.Finish()
		c.send(&wireMsg{
			Type:       msgMigrateSrcDone,
			Seq:        m.Seq,
			Pod:        m.Pod,
			RoundPages: roundPages,
			ImageBytes: streamed,
			ctx:        op.span.Context(),
		})
	})
}

// ---------------------------------------------------------------------
// Destination agent side.

// migrateInOp tracks the destination half: adopt the streamed rounds,
// pre-merge them into a restorable image while the pod still runs on the
// source, then take over on migrate-restore.
type migrateInOp struct {
	*ctl.Op
	pod  string
	conn msgSink // coordinator connection for the final migrate-done

	// held is the running merge of every adopted round — always a full
	// (non-incremental) image, so the freeze-path work is one small
	// residual merge plus the restore, never a chain walk.
	held    *ckpt.Image
	merging bool
	pending []int // adopted seqs waiting to merge, in arrival order
	adopted []int // every adopted seq, for discard on abort

	frozeAt    sim.Time
	restoreReq bool
	filterID   int
	restored   *zap.Pod

	span      trace.Span
	phMerge   trace.Span
	phRestore trace.Span
}

func (op *migrateInOp) endSpans(args ...trace.Arg) {
	op.phMerge.End(args...)
	op.phRestore.End(args...)
	op.span.End(args...)
}

// startMigrateIn arms the destination: rounds adopted for this pod from
// now on pre-merge toward a restorable image.
func (a *Agent) startMigrateIn(c msgSink, m *wireMsg) {
	o, err := a.table.Begin("migrate-in", m.Pod, m.Seq)
	if err != nil {
		a.fail(c, msgMigrateDone, m, ErrBusy)
		return
	}
	op := &migrateInOp{Op: o, pod: m.Pod, conn: c}
	o.Data = op
	op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.migrate-in",
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	o.OnFail(func(_ *ctl.Op, err error) {
		a.Stats.Aborts++
		if op.filterID != 0 {
			a.kern.Stack().Filter().RemoveRule(op.filterID)
			op.filterID = 0
		}
		// A pod restored but not yet committed is destroyed: the source
		// still holds the authoritative copy and resumes it on its own
		// abort path.
		if op.restored != nil && !op.restored.Destroyed() {
			op.restored.Destroy()
		}
		if len(op.adopted) > 0 {
			a.store.Discard(op.pod, op.adopted...)
		}
		op.endSpans(trace.Str("outcome", "aborted"))
	})
}

// migrateRoundArrived hooks each adopted delta transfer: if a migrate-in
// op is armed for the pod, the round joins the pre-merge queue.
func (a *Agent) migrateRoundArrived(pod string, seq int) {
	op := ctl.Find[migrateInOp](a.table, pod)
	if op == nil || op.Aborted() {
		return
	}
	op.adopted = append(op.adopted, seq)
	op.pending = append(op.pending, seq)
	a.migrateMerge(op)
}

// migrateMerge drains the pending queue one round at a time. The first
// round loads merged (resolving any base chain the delta protocol
// skipped because this store already held it); later rounds load alone
// and fold into the held image. All of this runs while the pod is still
// live on the source — only the residual's merge can land inside the
// freeze window.
func (a *Agent) migrateMerge(op *migrateInOp) {
	if op.merging || len(op.pending) == 0 || op.Aborted() {
		return
	}
	seq := op.pending[0]
	op.pending = op.pending[1:]
	op.merging = true
	op.phMerge = a.tr.BeginChild(op.span.Context(), a.kern.Name(), trace.PhaseCat, "migrate-merge",
		trace.Str("pod", op.pod), trace.Int("seq", int64(seq)))
	// Folding an increment into the held image is an in-memory page copy
	// at the capture rate; the first round becomes the held image as is.
	fold := func(inc *ckpt.Image, err error) {
		if err != nil || op.held == nil {
			a.mergeDone(op, inc, err)
			return
		}
		a.cpu.Do(bytesCost(inc.MemoryBytes(), CaptureBPS), func() {
			if op.Aborted() {
				return
			}
			merged, merr := ckpt.Merge(op.held, inc)
			a.mergeDone(op, merged, merr)
		})
	}
	// Fast path: the round was adopted moments ago, so its decoded form
	// is still in this daemon's memory — fold it at CPU speed instead of
	// reading back what was just written. The read-back remains for the
	// cases where the bytes genuinely are not in memory: deduplicated
	// rounds (chunk reassembly) and a first round whose base chain the
	// delta protocol skipped because this store already held it on disk.
	if inc, ok := a.store.Cached(op.pod, seq); ok && (op.held != nil || !inc.Incremental) {
		fold(inc, nil)
		return
	}
	a.store.Load(op.pod, seq, op.held == nil, op.span.Context(), fold)
}

// mergeDone finishes one pre-merge step and continues: more pending
// rounds, or — when the source has already handed over — the takeover.
func (a *Agent) mergeDone(op *migrateInOp, img *ckpt.Image, err error) {
	op.merging = false
	if op.Aborted() {
		return
	}
	if err != nil {
		op.phMerge.End(trace.Str("err", err.Error()))
		a.fail(op.conn, msgMigrateDone, &wireMsg{Seq: op.Seq, Pod: op.pod, ctx: op.span.Context()}, err)
		op.Fail(err)
		return
	}
	op.held = img
	op.phMerge.End(trace.Int("mem_bytes", img.MemoryBytes()))
	if len(op.pending) > 0 {
		a.migrateMerge(op)
		return
	}
	if op.restoreReq {
		a.finishMigrateRestore(op)
	}
}

// handleMigrateRestore is the source's handover: the residual is in the
// local store (its adoption acknowledgment is what released the source
// to send this). Take over as soon as the pre-merge queue drains.
func (a *Agent) handleMigrateRestore(m *wireMsg) {
	op := ctl.Find[migrateInOp](a.table, m.Pod)
	if op == nil || op.Seq != m.Seq || op.Aborted() {
		return
	}
	op.frozeAt = m.FrozeAt
	op.restoreReq = true
	if !op.merging && len(op.pending) == 0 {
		a.finishMigrateRestore(op)
	}
}

// finishMigrateRestore performs the address takeover: install the drop
// filter for the pod's address, restore the image — which rebinds the
// VIF (IP and MAC move to this node's NIC), reinstates the live TCP
// state, and announces the new location with a gratuitous ARP *after*
// the TCP state exists, so a peer's very next segment finds a socket
// ready to accept it — then resume. Downtime is freeze to this resume.
func (a *Agent) finishMigrateRestore(op *migrateInOp) {
	img := op.held
	if img == nil {
		err := fmt.Errorf("core: migrate-restore before any round arrived")
		a.fail(op.conn, msgMigrateDone, &wireMsg{Seq: op.Seq, Pod: op.pod, ctx: op.span.Context()}, err)
		op.Fail(err)
		return
	}
	op.phRestore = a.tr.BeginChild(op.span.Context(), a.kern.Name(), trace.PhaseCat, "takeover",
		trace.Str("pod", op.pod))
	a.cpu.Do(filterCost+CaptureCost, func() {
		if op.Aborted() {
			return
		}
		pod, rerr := a.takeOver(op.pod, img, &op.filterID)
		if rerr != nil {
			op.phRestore.End(trace.Str("err", rerr.Error()))
			a.fail(op.conn, msgMigrateDone, &wireMsg{Seq: op.Seq, Pod: op.pod, ctx: op.span.Context()}, rerr)
			op.Fail(rerr)
			return
		}
		op.restored = pod
		a.cpu.Do(filterCost, func() {
			if op.Aborted() {
				return
			}
			pod.Resume()
			a.kern.Stack().Filter().RemoveRule(op.filterID)
			op.filterID = 0
			// Re-announce now that the pod is resumed and unfiltered.
			// Restore already broadcast a gratuitous ARP, but the source
			// pod still exists until commit; announcing again from the
			// final network state closes any window in which the switch
			// re-learned the old port. A quiescent pod (a server owing
			// its peers no data) would never source a frame on its own,
			// so a stale CAM entry would black-hole it forever.
			pod.AnnounceLocation()
			a.Stats.MigrationsIn++
			now := a.kern.Engine().Now()
			downtime := now.Sub(op.frozeAt)
			op.phRestore.End(trace.Int("downtime_us", int64(downtime/sim.Microsecond)))
			op.endSpans()
			op.Finish()
			op.conn.send(&wireMsg{
				Type:            msgMigrateDone,
				Seq:             op.Seq,
				Pod:             op.pod,
				LocalDuration:   now.Sub(op.Started()),
				BlockedDuration: downtime,
				ImageBytes:      img.MemoryBytes(),
				ctx:             op.span.Context(),
			})
		})
	})
}
