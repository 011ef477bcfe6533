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
)

// Live migration (the paper's §4.2 VIF/IP/MAC move, composed with the
// pre-copy and delta-replication machinery) is a checkpoint whose continue
// is a restart elsewhere, in the two-phase vocabulary between the
// coordinator C, the source agent S and the destination agent D:
//
//	C -> D  restart         Repl names S: arm D, rounds adopted for the
//	                        pod pre-merge
//	C -> S  checkpoint      Repl names D: a pre-copy epoch whose every
//	                        saved image also streams into D's store,
//	                        while the pod runs on S; then the freeze and
//	                        the residual's save and stream. Incremental
//	                        when C's registry lists D as a holder of the
//	                        pod's newest image: round 0 is then a delta
//	S -> D  continue        the handover; FrozeAt starts the downtime
//	D:      merge residual, filter, restore (VIF + TCP state install,
//	        gratuitous ARP last), resume — downtime ends here
//	D -> C  done            downtime report; the commit point
//	C -> S  continue        roll forward: destroy the source copy
//	S -> C  continue-done   rounds/bytes report; op complete
//
// Either agent reports a failure as done + Err. Before the
// commit point an abort rolls back like an aborted pre-copy checkpoint: S
// drops the rounds, rewinds the dirty base past them and resumes the pod; D
// discards what it adopted. From it on the migration only rolls forward:
// whatever fails, the member is re-homed to D and S is never resumed.

// ErrNoMigration reports an abort request with no migration in flight.
var ErrNoMigration = errors.New("core: no migration in flight for job")

// MigrateOptions tunes one live migration.
type MigrateOptions struct {
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
// and the source's stream report. D's done clears wait-set "done"
// (the downtime is the op's maxBlocked), S's continue-done "cont".
type migration struct {
	pod      string
	src, dst tcpip.AddrPort

	streamed   int64
	roundPages []int
}

// Migrate moves one pod of the job to the target node with pre-copy
// streaming: the pod runs (and communicates) through the rounds and
// freezes only for the residual dirty set plus address takeover. Once the
// target reports the pod running, the job's member record is re-homed to
// it, so later checkpoints and recoveries address the pod there.
func (c *Coordinator) Migrate(job *Job, pod string, target tcpip.AddrPort, opts MigrateOptions, done func(*MigrationResult, error)) {
	idx := slices.IndexFunc(job.Members, func(m Member) bool { return m.Pod == pod })
	if idx < 0 {
		done(nil, fmt.Errorf("%w: %s", ErrUnknownPod, pod))
		return
	}
	src := job.Members[idx].Agent
	if src == target {
		done(nil, fmt.Errorf("core: pod %s already lives on %s", pod, target.String()))
		return
	}
	if err := c.registered(target); err != nil {
		done(nil, err)
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
	op.mig, op.dests = mig, []dest{{Member: job.Members[idx]}}
	op.span = c.tr.BeginOp(c.stack.Name(), "core", "migrate",
		trace.Str("job", job.Name), trace.Str("pod", pod),
		trace.Int("seq", int64(seq)),
		trace.Str("from", src.String()), trace.Str("to", target.String()))
	op.OnFinish(func(_ *ctl.Op, err error) {
		if op.Cleared("done") {
			// Past the commit point the pod lives on the target, whatever
			// failed since: re-home the member so later ops address it
			// there, and record the target as holder of the image chain.
			job.Members[idx].Agent = target
			c.addHolder(pod, seq, target)
		}
		if err != nil {
			op.span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		rounds := max(len(mig.roundPages)-1, 0)
		op.span.End(trace.Int("rounds", int64(rounds)),
			trace.Int("downtime_us", int64(op.maxBlocked/sim.Microsecond)))
		done(&MigrationResult{
			Pod: pod, From: src, To: target, Seq: seq,
			Rounds:        rounds,
			RoundPages:    mig.roundPages,
			BytesStreamed: mig.streamed,
			Downtime:      op.maxBlocked,
			Latency:       c.stack.Engine().Now().Sub(op.Started()),
			Messages:      c.msgCount(parties) - op.msgBase,
		}, nil)
	})
	op.Expect("done", pod)
	op.Expect("cont", pod)
	c.ep.Connect(parties, func(cerr error) {
		if cerr != nil {
			op.Fail(cerr)
			return
		}
		if !op.Active() {
			return
		}
		op.msgBase = c.msgCount(parties)
		// Round 0 chains onto the pod's newest recorded image when the
		// target already holds it whole: only the delta against that
		// shared base streams. A stale record costs bytes, not
		// correctness — the offer lists the chain and the target's want
		// asks for any link it lacks.
		base := 0
		for s := range c.placed[pod] {
			base = max(base, s)
		}
		reuse := c.placed[pod][base].whole[target]
		if reuse {
			c.tr.InstantCtx(op.span.Context(), c.stack.Name(), "core", "migrate.base-reuse",
				trace.Str("pod", pod), trace.Int("base", int64(base)))
		}
		// Arm the destination first so its migrate-in op exists before
		// the first round's delta transfer can land.
		c.sendOrFail(op, target, &wireMsg{Type: msgRestart, Seq: seq, Pod: pod, ctx: op.span.Context(),
			Repl: &replPayload{PeerIP: src.Addr, PeerPort: src.Port}})
		c.sendOrFail(op, src, &wireMsg{
			Type:                  msgCheckpoint,
			Seq:                   seq,
			Pod:                   pod,
			ctx:                   op.span.Context(),
			Incremental:           reuse,
			Dedup:                 opts.Dedup,
			Pipeline:              opts.Pipeline,
			PrecopyRounds:         opts.Precopy.MaxRounds,
			PrecopyThresholdPages: opts.Precopy.DirtyThresholdPages,
			PrecopyMinGain:        opts.Precopy.MinRoundGain,
			Repl:                  &replPayload{PeerIP: target.Addr, PeerPort: target.Port},
		})
	})
}

// AbortMigration aborts the job's in-flight migration, if any: before the
// commit point both agents roll back and the pod keeps running on the
// source.
func (c *Coordinator) AbortMigration(job string) error {
	op := ctl.Find[rootOp](c.table, job)
	if op == nil || op.mig == nil {
		return ErrNoMigration
	}
	op.Fail(ErrAborted)
	return nil
}

// ---------------------------------------------------------------------
// Source agent side: startCheckpoint with Repl set.

// migrating reports whether the save op is a migrate-out.
func (op *agentOp) migrating() bool { return op.migrateTo.Port != 0 }

// streamRound pushes the just-saved image into a migration's destination
// store through the chunk exchange, invoking next once the destination has
// adopted it. A checkpoint has nowhere to stream: next runs at once.
func (a *Agent) streamRound(op *agentOp, seq int, next func()) {
	if !op.migrating() {
		next()
		return
	}
	if op.Aborted() {
		return
	}
	ro := a.replicateOn(&replOp{pod: op.Key, peer: op.migrateTo, tier: ctl.TierStream, onDone: func(n int64, rerr error) {
		op.stream = nil
		if op.Aborted() {
			return
		}
		if rerr != nil {
			a.failOp(op, rerr)
			return
		}
		op.streamed += n
		next()
	}}, seq, op.span.Context())
	if ro != nil && ro.Active() {
		op.stream = ro
	}
}

// handedOver is the source's step of the continue path: the pod is live on
// the destination, so the frozen source copy and its uncommitted round
// images go away where a checkpoint would resume. The round chain now
// lives (only) in the destination's store, which is exactly where a later
// restart of the pod will run.
func (a *Agent) handedOver(op *agentOp) {
	for _, lc := range op.rounds {
		lc.Release()
	}
	if !op.pod.Destroyed() {
		op.pod.Destroy()
	}
	if op.filterID != 0 {
		a.kern.Stack().Filter().RemoveRule(op.filterID)
		op.filterID = 0
	}
	if len(op.roundSeqs) > 0 {
		a.store.Discard(op.Key, op.roundSeqs...)
		op.roundSeqs = nil
	}
	op.endSpans(trace.Str("outcome", "migrated"))
	op.Finish()
	op.conn.Send(&wireMsg{Type: msgContinueDone, Seq: op.Seq, Pod: op.Key,
		RoundPages: op.roundPages, ImageBytes: op.streamed, ctx: op.span.Context()})
}

// ---------------------------------------------------------------------
// Destination agent side: an agent op of kind "migrate-in", armed by a
// restart whose Repl names the source (startRestart), that pre-merges the
// adopted rounds while the pod still runs on the source, and restarts the
// pod from them on the source's handover, the continue it waits on.

// migratingIn reports whether the op is a migration's destination half.
func (op *agentOp) migratingIn() bool { return op.Kind == "migrate-in" }

// migrateRoundArrived hooks each adopted delta transfer: if a migrate-in
// op is armed for the pod, the round joins the pre-merge queue.
func (a *Agent) migrateRoundArrived(pod string, seq int) {
	op := ctl.Find[agentOp](a.table, pod)
	if op == nil || !op.migratingIn() {
		return
	}
	op.roundSeqs = append(op.roundSeqs, seq)
	op.pending = append(op.pending, seq)
	a.migrateMerge(op)
}

// migrateMerge advances the destination by one step: the oldest pending
// round folds into the held image (the first loads merged, resolving any
// base chain the delta protocol skipped), or — with the queue drained and
// the handover in — the takeover. Only the residual's merge can land
// inside the freeze window.
func (a *Agent) migrateMerge(op *agentOp) {
	if op.merging || op.Aborted() {
		return
	}
	if len(op.pending) == 0 {
		if op.contRecvd {
			a.migrateTakeOver(op)
		}
		return
	}
	seq := op.pending[0]
	op.pending = op.pending[1:]
	op.merging = true
	a.openPhase(op, &op.phase, "migrate-merge", trace.Int("seq", int64(seq)))
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
	// is still in memory. The read-back remains for deduplicated rounds
	// (chunk reassembly) and a first round whose base chain is on disk.
	if inc, ok := a.store.Cached(op.Key, seq); ok && (op.held != nil || !inc.Incremental) {
		fold(inc, nil)
		return
	}
	a.store.Load(op.Key, seq, op.held == nil, op.span.Context(), fold)
}

// mergeDone finishes one pre-merge step and takes the next.
func (a *Agent) mergeDone(op *agentOp, img *ckpt.Image, err error) {
	op.merging = false
	if op.Aborted() {
		return
	}
	if err != nil {
		op.phase.End(trace.Str("err", err.Error()))
		a.failOp(op, err)
		return
	}
	op.held = img
	op.phase.End(trace.Int("mem_bytes", img.MemoryBytes()))
	a.migrateMerge(op)
}

// migrateTakeOver restarts the pod here from the held image: the restart
// path's two CPU steps back to back, because the handover was this op's
// continue — takeOver installs the drop filter for the pod's address and
// restores the image, which rebinds the VIF (IP and MAC move to this
// node's NIC), reinstates the live TCP state, and announces the new
// location with a gratuitous ARP *after* the TCP state exists, so a peer's
// very next segment finds a socket ready to accept it; then the continue
// path resumes it (tookOver). Downtime is freeze to that resume.
func (a *Agent) migrateTakeOver(op *agentOp) {
	if op.held == nil {
		a.failOp(op, errors.New("core: handover before any round arrived"))
		return
	}
	a.openPhase(op, &op.phase, "takeover")
	a.takeOver(op, op.held, func() { a.maybeFinishContinue(op) })
}

// tookOver is the destination's step of the continue path: resume the
// restored pod and report the downtime — the commit point.
func (a *Agent) tookOver(op *agentOp) {
	if op.Aborted() {
		return
	}
	pod := op.pod
	pod.Resume()
	a.kern.Stack().Filter().RemoveRule(op.filterID)
	op.filterID = 0
	// Re-announce from the final network state: the source pod exists
	// until commit, so the switch may have re-learned the old port, and a
	// quiescent pod (a server owing its peers no data) would never source
	// a frame to correct a stale CAM entry.
	pod.AnnounceLocation()
	a.Stats.MigrationsIn++
	now := a.kern.Engine().Now()
	downtime := now.Sub(op.stoppedAt)
	op.phase.End(trace.Int("downtime_us", int64(downtime/sim.Microsecond)))
	op.endSpans()
	op.Finish()
	op.conn.Send(&wireMsg{
		Type:            msgDone,
		Seq:             op.Seq,
		Pod:             op.Key,
		LocalDuration:   now.Sub(op.Started()),
		BlockedDuration: downtime,
		ImageBytes:      op.held.MemoryBytes(),
		ctx:             op.span.Context(),
	})
}
