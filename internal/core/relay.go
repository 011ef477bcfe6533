package core

import (
	"fmt"

	"cruz/internal/ctl"
	"cruz/internal/trace"
)

// Group-leader relay: the agent-side half of hierarchical coordination.
//
// Under the two-level tree the root sends one <checkpoint> (or <restart>)
// per group to its deterministic leader, naming the job instead of a pod.
// The leader relays the message to every group member by pod — its own
// pods locally, the rest over agent-to-agent connections — and aggregates
// the members' replies, sending one batch upward per protocol phase under
// the members' own reply type. The 2PC decision logic stays entirely at
// the root, which keeps commit/abort semantics identical to the flat
// fan-out: the leader forwards the first member error immediately, and
// the root's abort fan-out still reaches every member directly (plus one
// <abort> by job per leader so the relay state closes).

// relayKey is the leader's op-table key for a job's relay. The "grelay/"
// prefix keeps it clear of pod names and replication keys.
func relayKey(job string) string { return "grelay/" + job }

// relaySets maps each reply a leader aggregates to the wait-set it
// clears — the coordinator's own three, per member pod.
var relaySets = map[msgType]string{
	msgCommDisabled: "disabled",
	msgDone:         "done",
	msgContinueDone: "cont",
}

// relayOp tracks one group's relay on the leader: one batch per wait-set,
// accumulating in member-reply order (deterministic under the
// simulation's total event order).
type relayOp struct {
	*ctl.Op
	job     string
	up      msgSink // toward the root
	members []GroupMember
	batches map[string][]GroupReport
	span    trace.Span
}

// localSink routes a leader-local member's replies into the relay
// aggregation. The hop charges one daemon-CPU message cost — the
// leader's receive processing — but no wire time: leader and member
// share a node, so the reply is local IPC.
type localSink struct{ a *Agent }

func (s localSink) Send(m *wireMsg) error {
	s.a.local.Do(AgentMsgCost, m)
	return nil
}

// relayFor finds the active relay op covering (pod, seq), or nil.
// Table iteration is key-sorted, so resolution is deterministic.
func (a *Agent) relayFor(pod string, seq int) *relayOp {
	var found *relayOp
	a.table.Each(func(o *ctl.Op) {
		rop, ok := o.Data.(*relayOp)
		if found != nil || o.Seq != seq || !ok {
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

// onRelayMsg handles a request that names a job: it addresses this
// agent as the leader of one of the job's groups.
func (a *Agent) onRelayMsg(c *ctl.Link[*wireMsg], m *wireMsg) {
	switch m.Type {
	case msgCheckpoint, msgRestart:
		a.startRelay(c, m)
	case msgContinue:
		if rop := ctl.Find[relayOp](a.table, relayKey(m.Job)); rop != nil && rop.Seq == m.Seq {
			a.relayDown(rop, m)
		}
	case msgAbort:
		// The members' own rollbacks are driven by the root's direct
		// <abort>s; the leader only has aggregation state to discard.
		if rop := ctl.Find[relayOp](a.table, relayKey(m.Job)); rop != nil && rop.Seq == m.Seq {
			rop.Fail(ErrAborted)
		}
	}
}

// startRelay begins the relay op, opens its span under the root's
// context, and fans the request down to every member.
func (a *Agent) startRelay(c *ctl.Link[*wireMsg], m *wireMsg) {
	o, err := a.table.Begin("grelay", relayKey(m.Job), m.Seq)
	if err != nil {
		c.Send(&wireMsg{Type: msgDone, Job: m.Job, Seq: m.Seq, Err: ErrBusy.Error(), ctx: m.ctx})
		return
	}
	rop := &relayOp{Op: o, job: m.Job, up: c, members: m.Group, batches: make(map[string][]GroupReport)}
	o.Data = rop
	a.rootConn = c
	// The relay span is the extra hop of the tree: it nests under the
	// root op span and parents every member's agent span, so the
	// critical path still tiles the root.
	rop.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "relay."+m.Type.String(),
		trace.Str("job", m.Job), trace.Int("seq", int64(m.Seq)),
		trace.Int("members", int64(len(m.Group))))
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
		if m.Optimized || m.COW {
			rop.Expect("disabled", g.Pod)
		}
	}

	a.relayDown(rop, m)
}

// relayDown fans a request of the root's down to the group: the message
// itself, addressed to each member's pod instead of the job and with the
// relay span as its context — members cannot tell a leader from the root.
func (a *Agent) relayDown(rop *relayOp, m *wireMsg) {
	for _, g := range rop.members {
		mm := *m
		mm.Pod, mm.Job, mm.Group = g.Pod, "", nil
		mm.ctx = rop.span.Context()
		a.relays.Do(AgentMsgCost, relayed{rop, g, &mm})
	}
}

// relayed is one request a leader relays to a member, waiting for its
// turn on the lane.
type relayed struct {
	rop *relayOp
	g   GroupMember
	m   *wireMsg
}

// relayTo delivers one relayed message to a member: leader-local pods
// dispatch on this agent directly (one message cost, no wire), remote
// members go over a peer connection (one send cost; the member's own
// receive cost is charged by its onMsg).
func (a *Agent) relayTo(r relayed) {
	if r.rop.Aborted() {
		return
	}
	if r.g.addrPort() != a.Addr() {
		if cc, err := a.ep.Dial(r.g.addrPort()); err != nil {
			a.relayMemberFail(r.rop, r.g.Pod, err)
		} else {
			cc.Send(r.m)
		}
		return
	}
	switch r.m.Type {
	case msgCheckpoint:
		a.startCheckpoint(localSink{a}, r.m)
	case msgRestart:
		a.startRestart(localSink{a}, r.m)
	case msgContinue:
		a.handleContinue(localSink{a}, r.m)
	}
}

// relayMemberFail forwards a member failure to the root and closes the
// relay. The root fails the whole op and aborts every member directly —
// exactly the flat protocol's abort semantics, one hop later.
func (a *Agent) relayMemberFail(rop *relayOp, pod string, err error) {
	if !rop.Active() {
		return
	}
	rop.up.Send(&wireMsg{
		Type: msgDone, Job: rop.job, Seq: rop.Seq, Pod: pod,
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
			a.rootConn.Send(m)
		}
		return
	}
	rop := a.relayFor(m.Pod, m.Seq)
	if rop == nil {
		return
	}
	a.tr.InstantCtx(rop.span.Context(), a.kern.Name(), "core", "relay.recv."+m.Type.String(),
		trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	if m.Err != "" {
		a.relayMemberFail(rop, m.Pod, fmt.Errorf("%s", m.Err))
		return
	}
	// One batch per wait-set, sent up under the members' reply type when
	// the set clears; the relay is done once the votes and the resumes
	// are both in.
	set := relaySets[m.Type]
	if !rop.Arrive(set, m.Pod) {
		return
	}
	rop.batches[set] = append(rop.batches[set], m.report())
	if rop.Cleared(set) {
		rop.up.Send(&wireMsg{
			Type: m.Type, Job: rop.job, Seq: rop.Seq,
			Reports: rop.batches[set], ctx: rop.span.Context(),
		})
		if rop.Cleared("done") && rop.Cleared("cont") {
			rop.Finish()
		}
	}
}
