package core

import (
	"fmt"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/trace"
)

// Erasure-coded durability (agent side). After a deduplicated checkpoint
// commits, the primary stripes the chain's distinct chunks into groups of
// M, computes R parity blocks per stripe, and streams each of the first
// M+R ring peers its rotated shard subset — 1/M of the data plus parity
// instead of a full copy per replica, so the durable footprint is
// (M+R)/M of the image where k-way replication pays k. Each holder
// exchange is the chunk exchange of repl.go opened with a shard set:
// unchanged stripes dedupe away exactly like unchanged chunks under
// replication. Shard data travels at ctl.TierBackground, so it yields to
// foreground control traffic and migration rounds and is paced by the
// node's token bucket.
//
// Recovery composes with the coordinator's registry: when no surviving
// node holds the full image, the coordinator directs the new home to pull
// the shard subsets of any M live holders (fetch with Sources -> one
// fetch-pull per holder, each answered with a shard data message) and
// reconstruct the missing chunks locally — any R node losses are
// survivable by construction, because the rotated placement gives every
// holder exactly one shard per stripe. This file holds what only shards
// need: the encode before distribution and the reconstruct accumulator.

// SetEC configures erasure-coded durability: committed deduplicated
// checkpoints are striped M+R across the first M+R ring peers instead of
// being fully replicated. Checkpoints that cannot stripe (blob form, or
// fewer than M+R peers) fall back to R-way replication. Durability traffic
// is background traffic from then on, paced at backgroundBPS so shard
// pushes cannot starve foreground protocol rounds.
func (a *Agent) SetEC(p ckpt.ECParams) {
	a.ec = p
	a.ep.SetPacer(ctl.NewPacer(a.kern.Engine(), backgroundBPS, 0))
}

// ecEligible reports whether the committed checkpoint can be erasure
// coded: EC configured, the image is deduplicated (stripes are chunk
// groups), and the ring has a peer for every shard.
func (a *Agent) ecEligible(dedup bool) bool {
	return a.ec.Enabled() && dedup && len(a.peers) >= a.ec.M+a.ec.R
}

// startDurability dispatches the committed checkpoint's durability work:
// erasure-coded shard distribution when eligible, plain replication
// otherwise (an EC-configured agent falls back to R replicas, keeping the
// survive-R-losses guarantee).
func (a *Agent) startDurability(pod string, seq, replicas int, dedup bool, coord msgSink, ctx trace.SpanContext) {
	if a.ecEligible(dedup) {
		a.startECDistribute(pod, seq, coord, ctx)
		return
	}
	n := replicas
	if a.ec.Enabled() && n < a.ec.R {
		n = a.ec.R
	}
	if n > 0 {
		a.startReplication(pod, seq, n, coord, ctx)
	}
}

// startECDistribute encodes the committed chain into M+R shards and
// streams each holder its subset. Encoding cost is charged at EncodeBPS
// over the striped data; the parity lands on the local disk first (the
// primary is itself a holder of record until the set supersedes).
func (a *Agent) startECDistribute(pod string, seq int, coord msgSink, ctx trace.SpanContext) {
	plan, err := a.store.PlanECSave(pod, seq, a.ec)
	if err != nil {
		a.Stats.ECFailures++
		return
	}
	setBlob, err := plan.Set.Encode()
	if err != nil {
		a.Stats.ECFailures++
		return
	}
	sp := a.tr.BeginChild(ctx, a.kern.Name(), "core", "agent.ec-encode",
		trace.Str("pod", pod), trace.Int("seq", int64(seq)),
		trace.Int("stripes", int64(plan.Stripes)),
		trace.Int("parity_bytes", plan.ParityBytes))
	// Parity is a GF(256) pass over every striped byte.
	a.bulk.Do(bytesCost(plan.DataBytes, EncodeBPS), func() {
		a.store.Disk().Write(plan.ParityBytes, func() {
			sp.End()
			for h := 0; h < plan.Set.Shards(); h++ {
				a.replicateOn(&replOp{pod: pod, peer: a.peers[h], coord: coord, tier: ctl.TierBackground,
					set: plan.Set, setBlob: setBlob, holder: h}, seq, ctx)
			}
		})
	})
}

// shardsArrived is the fetch target side: accumulate one pulled holder's
// contribution p. Each subset's shard blocks go to disk as they arrive —
// they are content-addressed chunks, exactly like the distribute side's
// adoption — so the disk overlaps the remaining network pulls and the
// final decode pass only has the parity-recovered bytes left to write.
// Once every pulled holder has answered and landed, decode and install.
func (a *Agent) shardsArrived(op *fetchOp, p *replPayload) {
	if op.set == nil {
		set, err := ckpt.DecodeECSet(p.ECSet)
		if err != nil {
			op.Fail(err)
			return
		}
		op.set = set
	}
	for seq, blob := range p.Manifests {
		op.manifests[seq] = blob
	}
	op.blocks = append(op.blocks, p.Chunks...)
	op.wireBytes += p.Bytes
	op.pending--
	a.pullNext(op)
	var arrived int64
	for _, cd := range p.Chunks {
		arrived += int64(len(cd.Data))
	}
	op.adopting++
	a.store.Disk().Write(arrived, func() {
		if !op.Active() {
			return
		}
		op.adopting--
		if op.pending == 0 && op.adopting == 0 {
			a.finishECReconstruct(op)
		}
	})
}

// finishECReconstruct decodes the gathered shards back into the
// checkpoint chain: a GF(256) pass over the striped bytes on the daemon
// CPU, the chunk installs, and one disk write of the parity-recovered
// bytes (the directly-arrived blocks hit disk as their subsets landed).
// The reported LocalDuration is the decode-to-disk window — the
// reconstruct share of the recovery's MTTR.
func (a *Agent) finishECReconstruct(op *fetchOp) {
	if op.set == nil {
		op.Fail(fmt.Errorf("core: ec reconstruct %s: no shard manifest arrived", op.pod))
		return
	}
	start := a.kern.Engine().Now()
	a.cpu.Do(bytesCost(op.set.DataBytes(), EncodeBPS), func() {
		if !op.Active() {
			return
		}
		rec, err := a.store.ReconstructEC(op.set, op.manifests, op.blocks)
		if err != nil {
			op.Fail(err)
			return
		}
		a.store.Disk().Write(rec.DecodedBytes, func() {
			if !op.Active() {
				return
			}
			a.Stats.Reconstructs++
			a.Stats.ReconstructedChunks += uint64(rec.DecodedChunks)
			now := a.kern.Engine().Now()
			op.span.End(
				trace.Int("decoded_stripes", int64(rec.DecodedStripes)),
				trace.Int("decoded_chunks", int64(rec.DecodedChunks)),
				trace.Int("bytes", op.wireBytes))
			op.conn.Send(&wireMsg{
				Type:          msgFetchDone,
				Seq:           op.Seq,
				Pod:           op.pod,
				LocalDuration: now.Sub(start),
				ctx:           op.span.Context(),
				Repl:          &replPayload{Bytes: op.wireBytes},
			})
			op.Finish()
		})
	})
}
