package core

import (
	"errors"
	"fmt"
	"strconv"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// The chunk exchange (agent side). After a checkpoint's local save
// commits, the agent streams the image to peer agents over the simulated
// network. The exchange is delta-aware: an offer describes the chain and
// its distinct chunk hashes, the peer answers with what it is missing, and
// only that delta travels — so steady-state replication of a dedup chain
// costs little more than the manifest. Every bulk transfer between agents
// is this one exchange, parameterised by the replOp that opens it:
// whole-image replication offers the chain and all its hashes to k peers
// at background tier; erasure-coded distribution (ec.go) offers the chain
// and holder h's rotated shard subset to M+R peers and ships the shard
// manifest with the data; a migration round goes to one peer at stream
// tier with a completion hook; a recovery fetch is the same exchange
// pulled by the new home instead of pushed.

// ErrReplTimeout marks a replication or fetch exchange that went silent.
var ErrReplTimeout = errors.New("core: replication timed out")

// replOp is the initiator side of one exchange (this agent pushing one
// checkpoint to one peer connection). Callers fill in what they
// parameterise and hand it to replicateOn.
type replOp struct {
	*ctl.Op
	pod  string
	peer tcpip.AddrPort // peer's listener endpoint (zero when serving a fetch pull)
	// conn is the connection the exchange runs on; nil = dial peer.
	conn *ctl.Link[*wireMsg]
	// coord, when set, receives the <replicated> placement report the
	// coordinator's holder registry feeds on.
	coord msgSink
	// onDone, when set, fires exactly once when the exchange completes:
	// with the transferred byte count on success, or the failure error.
	// Migration rounds use it to pace the stream — the next round starts
	// only once the destination has adopted this one.
	onDone func(int64, error)
	// tier is the send-path priority of this exchange's bulk data frame:
	// TierBackground for durability copies (paced, yields to everything),
	// TierStream for migration rounds and recovery fetches.
	tier ctl.Tier
	// set, when non-nil, makes this a shard exchange: the offer carries
	// only ring position holder's shard hashes, and the set manifest
	// (setBlob, its encoding) travels with the data.
	set     *ckpt.ECSet
	setBlob []byte
	holder  int
	span    trace.Span
}

// fetchOp is the target side of a coordinator-directed fetch: this agent
// pulling a checkpoint it does not hold from its sources, one at a time.
// A source holding the chain pushes it through the exchange and the fetch
// completes on adoption; a source holding only shards answers with them,
// and once every source has the chain is reconstructed (ec.go).
type fetchOp struct {
	*ctl.Op
	pod     string
	conn    msgSink       // coordinator connection to report <fetch-done> on
	sources []GroupMember // surviving holders to pull
	next    int           // next source to pull
	span    trace.Span
	// overtaken marks a fetch a newer <fetch> for the pod replaced: the
	// coordinator dropped the plan that asked for it, so it fails unreported.
	overtaken bool

	// Reconstruction state: what the shard holders have sent so far.
	pending   int // pulls not yet answered
	adopting  int // arrival disk writes still in flight
	set       *ckpt.ECSet
	manifests map[int][]byte
	blocks    []ckpt.ChunkData
	wireBytes int64
}

func replKey(pod string, seq int, remote tcpip.AddrPort) string {
	return "repl/" + pod + "/" + strconv.Itoa(seq) + "/" + remote.String()
}

// startReplication pushes the committed checkpoint to the first k ring
// peers. Runs off the coordinated cycle's critical path; ctx parents the
// exchanges under the checkpoint that produced the image.
func (a *Agent) startReplication(pod string, seq, replicas int, coord msgSink, ctx trace.SpanContext) {
	n := replicas
	if n > len(a.peers) {
		n = len(a.peers)
	}
	for i := 0; i < n; i++ {
		a.replicateOn(&replOp{pod: pod, peer: a.peers[i], coord: coord, tier: ctl.TierBackground}, seq, ctx)
	}
}

// replFailed counts one failed exchange.
func (a *Agent) replFailed(op *replOp) {
	if op.set != nil {
		a.Stats.ECFailures++
	} else {
		a.Stats.ReplFailures++
	}
}

// replicateOn runs one offer/want/data exchange for (op.pod, seq). It
// returns the exchange's ctl op (nil if it could not start) so callers
// that pace on the transfer — migration rounds — can cancel it on abort.
func (a *Agent) replicateOn(op *replOp, seq int, ctx trace.SpanContext) *ctl.Op {
	if op.conn == nil {
		cc, err := a.ep.Dial(op.peer)
		if err != nil {
			a.replFailed(op)
			if op.onDone != nil {
				op.onDone(0, err)
			}
			return nil
		}
		op.conn = cc
	}
	o, err := a.table.Begin("replicate", replKey(op.pod, seq, op.conn.TCP().RemoteAddr()), seq)
	if err != nil {
		if op.onDone != nil {
			op.onDone(0, ErrBusy)
		}
		return nil // this exchange is already in flight
	}
	op.Op = o
	o.Data = op
	if op.set != nil {
		op.span = a.tr.BeginChild(ctx, a.kern.Name(), "core", "agent.ec-distribute",
			trace.Str("pod", op.pod), trace.Int("seq", int64(seq)),
			trace.Int("holder", int64(op.holder)))
	} else {
		op.span = a.tr.BeginChild(ctx, a.kern.Name(), "core", "agent.replicate",
			trace.Str("pod", op.pod), trace.Int("seq", int64(seq)))
	}
	o.OnFail(func(_ *ctl.Op, err error) {
		a.replFailed(op)
		op.span.End(trace.Str("err", err.Error()))
		if op.onDone != nil {
			op.onDone(0, err)
		}
	})
	var offer *replPayload
	if op.set != nil {
		offer = &replPayload{Chain: op.set.Chain, Dedup: true, Hashes: op.set.HolderHashes(op.holder),
			Holder: op.holder, ECM: op.set.M}
	} else {
		exp, oerr := a.store.ExportOffer(op.pod, seq)
		if oerr != nil {
			o.Fail(oerr)
			return nil
		}
		offer = &replPayload{Chain: exp.Chain, Dedup: exp.Dedup, Hashes: exp.Hashes}
	}
	// One offer: TCP carries it across a partition that heals in time, and
	// a second copy would be answered — and the image adopted — twice.
	o.ArmTimeout(2*replTimeout, ErrReplTimeout)
	op.conn.Send(&wireMsg{Type: msgReplOffer, Seq: seq, Pod: op.pod, ctx: op.span.Context(), Repl: offer})
	return o
}

// handleOffer is the receiving side: answer with the missing delta — for
// a shard offer (ECM set), the chain manifests and shard blocks this
// store lacks. The chunk-set comparison costs DedupPerChunk per offered
// hash. An offer carrying an error is a source refusing a fetch pull.
func (a *Agent) handleOffer(c *ctl.Link[*wireMsg], m *wireMsg) {
	if m.Err != "" {
		a.failFetch(m.Pod, m.Seq, fmt.Errorf("%s", m.Err))
		return
	}
	p := m.Repl
	if p == nil {
		return
	}
	offer := &ckpt.Offer{Pod: m.Pod, Seq: m.Seq, Chain: p.Chain, Dedup: p.Dedup, Hashes: p.Hashes, Shard: p.ECM > 0}
	a.cpu.Do(dedupPerChunk*sim.Duration(len(offer.Hashes)), func() {
		want := &replPayload{Holder: p.Holder}
		want.NeedSeqs, want.NeedHashes = a.store.Missing(offer)
		c.Send(&wireMsg{Type: msgReplWant, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, Repl: want})
	})
}

// handleWant is the initiator side: build and ship the delta (plus the
// set manifest, on a shard exchange).
func (a *Agent) handleWant(c *ctl.Link[*wireMsg], m *wireMsg) {
	op := ctl.Find[replOp](a.table, replKey(m.Pod, m.Seq, c.TCP().RemoteAddr()))
	if op == nil || m.Repl == nil {
		return
	}
	tx, err := a.store.BuildTransfer(m.Pod, m.Seq, m.Repl.NeedSeqs, m.Repl.NeedHashes)
	if err != nil {
		op.Fail(err)
		return
	}
	// The offer reached the peer; from here replTimeout guards the bulk
	// transfer.
	op.ArmTimeout(replTimeout, ErrReplTimeout)
	a.bulk.Do(bytesCost(tx.TotalBytes, EncodeBPS), func() {
		if !op.Active() {
			return
		}
		op.conn.Send(&wireMsg{Type: msgReplData, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context(), tier: op.tier, tx: tx, Repl: &replPayload{
			Manifests: tx.Manifests, Chunks: tx.Chunks, Bytes: tx.TotalBytes,
			ECSet: op.setBlob, Holder: op.holder,
		}})
	})
}

// handleData is the receiving side: adopt the delta into the local store
// (decode CPU, then the disk write), acknowledge, and complete any fetch
// or migration waiting on it. Data carrying a shard manifest is a shard
// subset: this node's own, to hold — or, while a fetch for (pod, seq) is
// open here, a pulled holder's contribution to the reconstruction.
func (a *Agent) handleData(c *ctl.Link[*wireMsg], m *wireMsg) {
	p := m.Repl
	if p == nil {
		return
	}
	tx := m.tx // the images the frame carried, if any
	if tx == nil {
		tx = new(ckpt.Transfer)
	}
	tx.Pod, tx.Seq, tx.Ctx = m.Pod, m.Seq, m.ctx
	tx.Manifests, tx.Chunks, tx.Holder, tx.TotalBytes = p.Manifests, p.Chunks, p.Holder, p.Bytes
	adopted := func(_ int64, err error) {
		if err != nil {
			a.fail(c, msgReplDone, m, err)
			a.failFetch(m.Pod, m.Seq, err)
			return
		}
		c.Send(&wireMsg{Type: msgReplDone, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, Repl: &replPayload{Bytes: p.Bytes, Holder: p.Holder}})
		if tx.Set == nil {
			a.finishFetch(m.Pod, m.Seq, p.Bytes)
			a.migrateRoundArrived(m.Pod, m.Seq)
		}
	}
	if len(p.ECSet) > 0 {
		if op := ctl.Find[fetchOp](a.table, fetchKey(m.Pod)); op != nil && op.Seq == m.Seq {
			a.shardsArrived(op, p)
			return
		}
		var err error
		if tx.Set, err = ckpt.DecodeECSet(p.ECSet); err != nil {
			adopted(0, err)
			return
		}
	}
	a.cpu.Do(bytesCost(p.Bytes, EncodeBPS), func() { a.store.Adopt(tx, adopted) })
}

// handleDone is the initiator side: the peer holds the image (or its
// shard subset). Report the placement to the coordinator's registry.
func (a *Agent) handleDone(c *ctl.Link[*wireMsg], m *wireMsg) {
	op := ctl.Find[replOp](a.table, replKey(m.Pod, m.Seq, c.TCP().RemoteAddr()))
	if op == nil {
		return
	}
	if m.Err != "" {
		op.Fail(fmt.Errorf("core: replica: %s", m.Err))
		return
	}
	var n int64
	if m.Repl != nil {
		n = m.Repl.Bytes
	}
	report := &replPayload{Bytes: n, PeerIP: op.peer.Addr, PeerPort: op.peer.Port}
	if op.set != nil {
		a.Stats.ECDistributions++
		a.Stats.ECShardBytes += n
		report.Holder, report.ECM = op.holder, op.set.M
	} else {
		a.Stats.Replications++
		a.Stats.ReplBytes += n
	}
	op.span.End(trace.Int("bytes", n))
	if op.coord != nil && op.peer.Port != 0 {
		op.coord.Send(&wireMsg{Type: msgReplicated, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context(), Repl: report})
	}
	op.Finish()
	if op.onDone != nil {
		op.onDone(n, nil)
	}
}

// handleFetch is the recovery pull, target side: the coordinator directs
// this agent to fetch (pod, seq) before the restart lands here — from one
// surviving replica, or, when no node holds the image whole, from the
// shard subsets of the given surviving holders.
func (a *Agent) handleFetch(c *ctl.Link[*wireMsg], m *wireMsg) {
	// A second <fetch> for the pod comes from the plan that overtook the
	// first one's, and replaces it: the open fetch may be waiting out
	// ReplTimeout on a source that is now dead.
	if old := ctl.Find[fetchOp](a.table, fetchKey(m.Pod)); old != nil {
		old.overtaken = true
		old.Fail(ErrAborted)
	}
	if a.store.HasSeq(m.Pod, m.Seq) {
		// Already a replica — transfer cost is zero.
		c.Send(&wireMsg{Type: msgFetchDone, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, Repl: &replPayload{Bytes: 0}})
		return
	}
	if m.Repl == nil {
		a.fail(c, msgFetchDone, m, ErrUnknownPod)
		return
	}
	o, err := a.table.Begin("fetch", fetchKey(m.Pod), m.Seq)
	if err != nil {
		a.fail(c, msgFetchDone, m, ErrBusy)
		return
	}
	op := &fetchOp{Op: o, pod: m.Pod, conn: c, sources: m.Repl.Sources, manifests: make(map[int][]byte)}
	o.Data = op
	if len(op.sources) > 0 {
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.ec-fetch",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)),
			trace.Int("sources", int64(len(op.sources))))
	} else {
		op.sources = []GroupMember{{IP: m.Repl.PeerIP, Port: m.Repl.PeerPort}}
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.fetch",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	}
	op.pending = len(op.sources)
	o.OnFail(func(_ *ctl.Op, err error) {
		op.span.End(trace.Str("err", err.Error()))
		if !op.overtaken {
			a.fail(c, msgFetchDone, m, err)
		}
	})
	o.ArmTimeout(replTimeout, ErrReplTimeout)
	// Pull one source at a time. The target's link is the bottleneck
	// either way, so serial pulls cost no extra network time — but they
	// stagger the arrivals, so each shard subset's disk adoption overlaps
	// the next subset's transfer instead of every write queueing at the end.
	a.pullNext(op)
}

// pullNext issues the pull for op.sources[op.next], if any remain.
func (a *Agent) pullNext(op *fetchOp) {
	if op.next >= len(op.sources) {
		return
	}
	s := op.sources[op.next]
	op.next++
	cc, cerr := a.ep.Dial(s.addrPort())
	if cerr != nil {
		op.Fail(cerr)
		return
	}
	cc.Send(&wireMsg{Type: msgFetchPull, Seq: op.Seq, Pod: op.pod, ctx: op.span.Context()})
}

// handleFetchPull is the recovery pull, source side: a peer needs one of
// our checkpoints. Holding the chain, serve it with the normal exchange
// over the inbound connection. Holding only shards, answer with the shard
// manifest, the chain manifests and every shard block held, as one data
// message. Either way the reply streams at TierStream — recovery is
// latency-sensitive, unlike the background distribution that put the
// bytes here.
func (a *Agent) handleFetchPull(c *ctl.Link[*wireMsg], m *wireMsg) {
	if a.store.HasSeq(m.Pod, m.Seq) {
		a.replicateOn(&replOp{pod: m.Pod, conn: c, tier: ctl.TierStream}, m.Seq, m.ctx)
		return
	}
	tx, err := a.store.ECServe(m.Pod, m.Seq)
	if err != nil {
		a.fail(c, msgReplOffer, m, err)
		return
	}
	setBlob, err := tx.Set.Encode()
	if err != nil {
		a.fail(c, msgReplOffer, m, err)
		return
	}
	a.bulk.Do(bytesCost(tx.TotalBytes, EncodeBPS), func() {
		c.Send(&wireMsg{Type: msgReplData, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, tier: ctl.TierStream, Repl: &replPayload{
			ECSet: setBlob, Manifests: tx.Manifests, Chunks: tx.Chunks, Bytes: tx.TotalBytes,
		}})
	})
}

func fetchKey(pod string) string { return "fetch/" + pod }

// finishFetch completes a pending fetch after the adopted transfer lands.
func (a *Agent) finishFetch(pod string, seq int, n int64) {
	op := ctl.Find[fetchOp](a.table, fetchKey(pod))
	if op == nil || op.Seq != seq {
		return
	}
	op.span.End(trace.Int("bytes", n))
	op.conn.Send(&wireMsg{Type: msgFetchDone, Seq: seq, Pod: pod, ctx: op.span.Context(), Repl: &replPayload{Bytes: n}})
	op.Finish()
}

// failFetch fails a pending fetch for (pod, seq), if any.
func (a *Agent) failFetch(pod string, seq int, err error) {
	if op := ctl.Find[fetchOp](a.table, fetchKey(pod)); op != nil && op.Seq == seq {
		op.Fail(err)
	}
}
