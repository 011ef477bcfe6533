package core

import (
	"fmt"

	"cruz/internal/ctl"
	"cruz/internal/trace"
)

// Group-leader relay: the agent-side half of hierarchical coordination.
//
// Under the two-level tree the root sends one <group-checkpoint> (or
// <group-restart>) per group to its deterministic leader. The leader
// relays the per-pod message to every group member — its own pods
// locally, the rest over agent-to-agent connections — and aggregates
// the members' replies, sending one batched message upward per protocol
// phase. The 2PC decision logic stays entirely at the root, which keeps
// commit/abort semantics identical to the flat fan-out: the leader
// forwards the first member error immediately, and the root's abort
// fan-out still reaches every member directly (plus a <group-abort> per
// leader so the relay state closes).

// relayKey is the leader's op-table key for a job's relay. The "grelay/"
// prefix keeps it clear of pod names and replication keys.
func relayKey(job string) string { return "grelay/" + job }

// relayOp tracks one group's relay on the leader: the wait-sets mirror
// the coordinator's ("disabled", "done", "cont" per member pod), the
// aggregates accumulate in member-reply order (deterministic under the
// simulation's total event order).
type relayOp struct {
	*ctl.Op
	job     string
	up      msgSink // toward the root
	members []GroupMember
	restart bool

	disabled []GroupReport // comm-disabled arrivals (pods only)
	reports  []GroupReport // done / restart-done arrivals
	contReps []GroupReport // continue-done arrivals

	span trace.Span
}

// localSink routes a leader-local member's replies into the relay
// aggregation. The hop charges one daemon-CPU message cost — the
// leader's receive processing — but no wire time: leader and member
// share a node, so the reply is local IPC.
type localSink struct{ a *Agent }

func (s localSink) send(m *wireMsg) error {
	a := s.a
	a.cpu.Do(a.params.MsgCost, func() { a.relayMemberMsg(m) })
	return nil
}

// relayFor finds the active relay op covering (pod, seq), or nil.
// Table iteration is key-sorted, so resolution is deterministic.
func (a *Agent) relayFor(pod string, seq int) *relayOp {
	var found *relayOp
	a.table.Each(func(o *ctl.Op) {
		if found != nil || o.Seq != seq {
			return
		}
		rop, ok := o.Data.(*relayOp)
		if !ok {
			return
		}
		for _, g := range rop.members {
			if g.Pod == pod {
				found = rop
				return
			}
		}
	})
	return found
}

// relayByJob finds the active relay op for a job, or nil.
func (a *Agent) relayByJob(job string, seq int) *relayOp {
	if o := a.table.Get(relayKey(job)); o != nil && o.Seq == seq {
		if rop, ok := o.Data.(*relayOp); ok {
			return rop
		}
	}
	return nil
}

// startGroupOp handles <group-checkpoint>/<group-restart>: begin the
// relay op, open its span under the root's context, and fan the per-pod
// message down to every member.
func (a *Agent) startGroupOp(c *ctlConn, m *wireMsg) {
	restart := m.Type == msgGroupRestart
	upDone := msgGroupDone
	if restart {
		upDone = msgGroupRestartDone
	}
	o, err := a.table.Begin("grelay", relayKey(m.Job), m.Seq)
	if err != nil {
		c.send(&wireMsg{Type: upDone, Job: m.Job, Seq: m.Seq, Err: ErrBusy.Error(), ctx: m.ctx})
		return
	}
	rop := &relayOp{Op: o, job: m.Job, up: c, members: m.Group, restart: restart}
	o.Data = rop
	a.rootConn = c
	if a.tr.Enabled() {
		kind := "relay.checkpoint"
		if restart {
			kind = "relay.restart"
		}
		// The relay span is the extra hop of the tree: it nests under the
		// root op span and parents every member's agent span, so the
		// critical path still tiles the root.
		rop.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", kind,
			trace.Str("job", m.Job), trace.Int("seq", int64(m.Seq)),
			trace.Int("members", int64(len(m.Group))))
	}
	// The span ends exactly once, on completion or failure; the op's
	// removal from the table is what stops further member replies from
	// touching it.
	o.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			rop.span.End(trace.Str("outcome", "aborted"))
			return
		}
		rop.span.End()
	})

	for _, g := range m.Group {
		rop.Expect("done", g.Pod)
		rop.Expect("cont", g.Pod)
		if !restart {
			rop.Expect("disabled", g.Pod)
		}
	}

	// Fan down. The relayed message is the flat protocol's, verbatim,
	// with the relay span as its context — members cannot tell a leader
	// from the root.
	down := msgCheckpoint
	if restart {
		down = msgRestart
	}
	for _, g := range m.Group {
		mm := *m
		mm.Type = down
		mm.Pod = g.Pod
		mm.Job = ""
		mm.Group = nil
		mm.ctx = rop.span.Context()
		a.relaySend(rop, g, &mm)
	}
}

// relaySend delivers one relayed message to a member: leader-local pods
// dispatch on this agent directly (one message cost, no wire), remote
// members go over a peer connection (one send cost; the member's own
// receive cost is charged by its onMsg).
func (a *Agent) relaySend(rop *relayOp, g GroupMember, mm *wireMsg) {
	if g.addrPort() == a.Addr() {
		a.cpu.Do(a.params.MsgCost, func() {
			if rop.Aborted() {
				return
			}
			switch mm.Type {
			case msgCheckpoint:
				a.startCheckpoint(localSink{a}, mm)
			case msgRestart:
				a.startRestart(localSink{a}, mm)
			case msgContinue:
				a.handleContinue(localSink{a}, mm)
			}
		})
		return
	}
	a.cpu.Do(a.params.MsgCost, func() {
		if rop.Aborted() {
			return
		}
		cc, err := a.peerConn(g.addrPort())
		if err != nil {
			a.relayMemberFail(rop, g.Pod, err)
			return
		}
		cc.send(mm)
	})
}

// relayMemberFail forwards a member failure to the root and closes the
// relay. The root fails the whole op and aborts every member directly —
// exactly the flat protocol's abort semantics, one hop later.
func (a *Agent) relayMemberFail(rop *relayOp, pod string, err error) {
	if !rop.Active() {
		return
	}
	up := msgGroupDone
	if rop.restart {
		up = msgGroupRestartDone
	}
	rop.up.send(&wireMsg{
		Type: up, Job: rop.job, Seq: rop.Seq, Pod: pod,
		Err: err.Error(), ctx: rop.span.Context(),
	})
	rop.Fail(fmt.Errorf("%w: pod %s: %v", ErrAgentFailed, pod, err))
}

// relayMemberMsg aggregates one member reply. Remote members' replies
// arrive through onMsg; leader-local ones through localSink. Replies
// for which no relay is active (late arrivals after an abort) are
// dropped, as the root drops strays.
func (a *Agent) relayMemberMsg(m *wireMsg) {
	if m.Type == msgReplicated {
		// Placement reports are root bookkeeping, not votes: forward
		// verbatim (the member addressed its coordinator, which is us).
		// Replication runs off the cycle and usually finishes after the
		// relay op has, so this must not depend on one being open.
		if a.rootConn != nil {
			a.rootConn.send(m)
		}
		return
	}
	rop := a.relayFor(m.Pod, m.Seq)
	if rop == nil {
		return
	}
	if a.tr.Enabled() {
		a.tr.InstantCtx(rop.span.Context(), a.kern.Name(), "core", "relay.recv."+m.Type.String(),
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	}
	if m.Err != "" {
		a.relayMemberFail(rop, m.Pod, fmt.Errorf("%s", m.Err))
		return
	}
	switch m.Type {
	case msgCommDisabled:
		if !rop.Arrive("disabled", m.Pod) {
			return
		}
		rop.disabled = append(rop.disabled, GroupReport{Pod: m.Pod})
		if rop.Cleared("disabled") {
			rop.up.send(&wireMsg{
				Type: msgGroupDisabled, Job: rop.job, Seq: rop.Seq,
				Reports: rop.disabled, ctx: rop.span.Context(),
			})
		}
	case msgDone, msgRestartDone:
		if !rop.Arrive("done", m.Pod) {
			return
		}
		rop.reports = append(rop.reports, GroupReport{
			Pod:           m.Pod,
			LocalDuration: m.LocalDuration,
			ImageBytes:    m.ImageBytes,
		})
		if rop.Cleared("done") {
			up := msgGroupDone
			if rop.restart {
				up = msgGroupRestartDone
			}
			rop.up.send(&wireMsg{
				Type: up, Job: rop.job, Seq: rop.Seq,
				Reports: rop.reports, ctx: rop.span.Context(),
			})
			if rop.Cleared("cont") {
				rop.Finish()
			}
		}
	case msgContinueDone:
		if !rop.Arrive("cont", m.Pod) {
			return
		}
		rop.contReps = append(rop.contReps, GroupReport{
			Pod:             m.Pod,
			LocalDuration:   m.LocalDuration,
			BlockedDuration: m.BlockedDuration,
		})
		if rop.Cleared("cont") {
			rop.up.send(&wireMsg{
				Type: msgGroupContDone, Job: rop.job, Seq: rop.Seq,
				Reports: rop.contReps, ctx: rop.span.Context(),
			})
			if rop.Cleared("done") {
				rop.Finish()
			}
		}
	}
}

// handleGroupContinue fans the root's <continue> down to the group.
func (a *Agent) handleGroupContinue(m *wireMsg) {
	rop := a.relayByJob(m.Job, m.Seq)
	if rop == nil {
		return
	}
	for _, g := range rop.members {
		mm := &wireMsg{Type: msgContinue, Seq: m.Seq, Pod: g.Pod, ctx: rop.span.Context()}
		a.relaySend(rop, g, mm)
	}
}

// handleGroupAbort closes the relay after the root aborted the op. The
// members' own rollbacks are driven by the root's direct <abort>s; the
// leader only has aggregation state to discard.
func (a *Agent) handleGroupAbort(m *wireMsg) {
	if rop := a.relayByJob(m.Job, m.Seq); rop != nil {
		rop.Fail(ErrAborted)
	}
}
