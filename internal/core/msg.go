// Package core implements Cruz's coordinated checkpoint-restart protocol
// (paper §5): a Checkpoint Coordinator and per-node Checkpoint Agents
// exchanging the minimum messages needed for atomicity — the two-phase
// pattern of Fig. 2 — with no channel flushing. In-flight packets are
// simply dropped by each node's packet filter while the local pod state
// (including live TCP state) is saved; TCP retransmission recovers them
// when communication is re-enabled.
//
// Both the blocking protocol of Fig. 2 and the early-continue
// optimization of Fig. 4 are implemented, plus coordinated restart, abort
// on agent failure (the "straightforward extension" of §5), and the
// bookkeeping the paper's evaluation needs: per-phase timings and message
// counts.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/gobmemo"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// msgType discriminates control messages.
type msgType int

// Control message types. Names follow Fig. 2. The first seven are the
// whole two-phase protocol, flat or hierarchical, and a checkpoint and a
// restart both answer its first phase with done. A request that names a
// Pod addresses that pod, one that names a Job addresses the job's relay
// on the receiving agent — a group leader, which passes the request on to
// its group by pod and answers with the members' own reply type, their
// replies batched in Reports, so the root sees O(N/size) messages per
// protocol phase instead of O(N). Live migration (§4.2 taken live,
// migrate.go) has no type of its own: a restart whose Repl names the
// source arms the destination, a checkpoint whose Repl names the
// destination runs the source, and the rounds cross as chunk exchanges.
const (
	msgCheckpoint msgType = iota + 1
	msgCommDisabled
	msgDone
	msgContinue
	msgContinueDone
	msgRestart
	msgAbort

	// Membership: coordinator-driven heartbeats.
	msgPing
	msgPong

	// The chunk exchange: agent-to-agent checkpoint streaming (offer/want/
	// data/done delta exchange) and the agent-to-coordinator placement
	// report. Whole-image replication, migration rounds, recovery pulls and
	// erasure-coded shard distribution all run it; a shard exchange is one
	// whose offer carries Repl.ECM and whose data carries Repl.ECSet.
	msgReplOffer
	msgReplWant
	msgReplData
	msgReplDone
	msgReplicated

	// Recovery: coordinator-directed image fetch onto a new home node
	// (fetch), which pulls from each source it was given (fetch-pull): one
	// replica that pushes the chain through the exchange above, or M shard
	// holders that each answer with their shards as one data message, from
	// which the new home reconstructs the chain.
	msgFetch
	msgFetchPull
	msgFetchDone
)

var msgNames = map[msgType]string{
	msgCheckpoint:   "checkpoint",
	msgCommDisabled: "comm-disabled",
	msgDone:         "done",
	msgContinue:     "continue",
	msgContinueDone: "continue-done",
	msgRestart:      "restart",
	msgAbort:        "abort",
	msgPing:         "ping",
	msgPong:         "pong",
	msgReplOffer:    "repl-offer",
	msgReplWant:     "repl-want",
	msgReplData:     "repl-data",
	msgReplDone:     "repl-done",
	msgReplicated:   "replicated",
	msgFetch:        "fetch",
	msgFetchPull:    "fetch-pull",
	msgFetchDone:    "fetch-done",
}

// recvNames holds each type's "recv.<type>" trace instant, so that a
// reply names its instant without building the string.
var recvNames = func() map[msgType]string {
	names := make(map[msgType]string, len(msgNames))
	for t := msgCheckpoint; t <= msgFetchDone; t++ {
		names[t] = "recv." + t.String()
	}
	return names
}()

func (t msgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msgType(%d)", int(t))
}

// wireMsg is the single on-wire control message shape.
type wireMsg struct {
	Type msgType
	Seq  int
	Pod  string
	Err  string

	// Reporting fields carried on done/continue-done.
	LocalDuration sim.Duration // local checkpoint or restore duration
	// BlockedDuration (on continue-done, and on a migration destination's
	// done) is how long the pod was actually frozen: SIGSTOP
	// quiescence to resume.
	BlockedDuration sim.Duration
	ImageBytes      int64

	// Checkpoint options.
	Incremental bool
	Optimized   bool
	COW         bool
	Dedup       bool
	Pipeline    bool
	// Replicas asks the agent to stream the committed image to this many
	// peer nodes after its local save.
	Replicas int

	// Pre-copy (PrecopyRounds > 0): the agent streams up to this many
	// live rounds — copy-on-write captures taken without stopping the
	// pod — before the residual stop-and-copy at Seq. Rounds occupy the
	// sequence numbers (Seq-PrecopyRounds, Seq); only Seq is committed.
	PrecopyRounds int
	// PrecopyThresholdPages stops the rounds early once the live dirty
	// set is at most this many pages (0 = no threshold).
	PrecopyThresholdPages int
	// PrecopyMinGain stops the rounds when a round shrinks the dirty
	// set by less than this fraction of the previous round's pages —
	// the write rate is outrunning the copy rate (0 = no gain check).
	PrecopyMinGain float64

	// Load (on pong) is how many live pods the agent hosts — the
	// coordinator's placement signal.
	Load int

	// Migration. FrozeAt (on the source's handover continue) is the
	// source-side instant the pod quiesced — the start of the downtime
	// window the destination closes on first resume. RoundPages (on the
	// source's continue-done) is the per-round streamed page counts,
	// residual last — the convergence record the result reports.
	FrozeAt    sim.Time
	RoundPages []int

	// Hierarchical coordination. Job, set instead of Pod, addresses a
	// request to the job's relay on a group leader and marks a reply as
	// that relay's batch. Group is the leader's relay list on checkpoint/
	// restart; Reports carries the batched member replies (comm-disabled
	// carries pods only, done adds save or restore timings, continue-done
	// adds blocked windows). Flat frames set none of the three, and gob
	// does not transmit a zero field.
	Job     string
	Group   []GroupMember
	Reports []GroupReport

	// Repl carries the replication/fetch payload when present.
	Repl *replPayload

	// ctx is the distributed trace context. It is deliberately unexported:
	// gob skips it, because the context travels in the ctl frame header —
	// not the gob body — and is re-attached by msgCodec on receipt. Senders
	// set it in the message literal; handlers read it to parent their
	// spans (zero when the message belongs to no traced operation).
	ctx trace.SpanContext

	// tier is the send-path priority (unexported like ctx — it shapes
	// transmission, not the payload). Zero is TierForeground; bulk
	// durability data messages set TierBackground so they yield to
	// control traffic and migration rounds and pass the node's pacer.
	tier ctl.Tier

	// tx, on a data message, holds its blob-form images (Transfer.Images):
	// on the way out the sending store's transfer, on the way in one that
	// decodeMsg made for the images it read from the frame, which the
	// handler completes from Repl and adopts. The images travel as their
	// encodings behind the head, listed by sequence in Repl.Blobs. They
	// are kept here, not in Repl, because a slice there would push every
	// replPayload into the next size class; wireMsg has the room.
	tx *ckpt.Transfer
}

// images returns the blob-form images m carries.
func (m *wireMsg) images() []*ckpt.Image {
	if m.tx == nil {
		return nil
	}
	return m.tx.Images
}

// GroupMember is one entry of a leader's relay list: the pod and the
// agent that manages it.
type GroupMember struct {
	Pod  string
	IP   tcpip.Addr
	Port uint16
}

// addrPort returns the member's agent endpoint.
func (g GroupMember) addrPort() tcpip.AddrPort {
	return tcpip.AddrPort{Addr: g.IP, Port: g.Port}
}

// GroupReport is one member's reply inside a leader's upward aggregate.
type GroupReport struct {
	Pod             string
	LocalDuration   sim.Duration
	BlockedDuration sim.Duration
	ImageBytes      int64
}

// report is the member reply m as one entry of a batch. All four
// reporting fields are copied; the ones m's type leaves unset are zero
// and do not travel.
func (m *wireMsg) report() GroupReport {
	return GroupReport{Pod: m.Pod, LocalDuration: m.LocalDuration, BlockedDuration: m.BlockedDuration, ImageBytes: m.ImageBytes}
}

// replPayload is the bulk half of replication and fetch messages. Only
// the fields the message type needs are populated. Its byte slices (ECSet,
// Manifests, Chunks' Data), and the images of the message's tx, never
// pass through gob: they travel raw behind the gob head — see encodeMsg.
type replPayload struct {
	// Offer: the chain and (dedup) chunk hashes available.
	Chain  []int
	Dedup  bool
	Hashes []mem.PageHash
	// Want: the delta the replica is missing.
	NeedSeqs   []int
	NeedHashes []mem.PageHash
	// Data: the delta itself (images / encoded manifests / chunks). Blobs
	// is the wire's list of the sequences of the message's images, each
	// value empty: it is filled only in the head encodeMsg writes, and
	// decodeMsg reads the images it lists into the message's tx.
	Blobs     map[int][]byte
	Manifests map[int][]byte
	Chunks    []ckpt.ChunkData
	// Done / fetch-done / replicated bookkeeping.
	Bytes int64
	// Fetch: the source agent to pull from; replicated: the peer that
	// now holds the image.
	PeerIP   tcpip.Addr
	PeerPort uint16

	// Shard exchanges: the encoded shard manifest (data), the destination
	// holder's ring position — which shard of each stripe it stores — and,
	// on a fetch that must reconstruct, the surviving holders to pull from
	// (their Pod field unused). ECM is the set's data-shard count: on an
	// offer it marks the hashes as a shard subset, on a placement report
	// the coordinator needs it to judge whether enough holders survive to
	// reconstruct.
	ECSet   []byte
	Holder  int
	ECM     int
	Sources []GroupMember
}

// msgSink is where an agent's protocol replies go: the control
// connection the request arrived on, or — on a group leader — the local
// relay aggregator, which absorbs replies from the leader's own pods
// without a network hop (the leader is a member of its own group).
type msgSink interface {
	Send(m *wireMsg) error
}

// stripped returns a copy of the payload for the head: every bulk slice
// emptied but still counted, and images listed by sequence in Blobs, so
// the head tells the receiver what the raw tail holds.
func (p *replPayload) stripped(images []*ckpt.Image) *replPayload {
	cp := *p
	cp.ECSet, cp.Blobs = nil, nil
	if len(images) > 0 {
		cp.Blobs = make(map[int][]byte, len(images))
		for _, img := range images {
			cp.Blobs[img.Seq] = nil
		}
	}
	if p.Manifests != nil {
		cp.Manifests = make(map[int][]byte, len(p.Manifests))
		for seq := range p.Manifests {
			cp.Manifests[seq] = nil
		}
	}
	cp.Chunks = make([]ckpt.ChunkData, len(p.Chunks))
	for i := range p.Chunks {
		cp.Chunks[i].Hash = p.Chunks[i].Hash
	}
	return &cp
}

// A frame payload is the gob encoding of one wireMsg and, only when the
// message carries bulk, a raw tail:
//
//	gob(wireMsg, bulk slices emptied) ‖ len[0..n) (4 bytes each, big-endian) ‖ bytes[0] ‖ … ‖ bytes[n-1]
//
// in this order: ECSet, each image's encoding by ascending sequence, the
// Manifests by ascending sequence, then each chunk's Data — n being the
// count the decoded head implies, one entry per image. gob keeps what it
// is good at — the small structured fields, and a bulk-free control frame
// is byte for byte the plain gob encoding of its message — while page
// bytes cross the codec untouched: the sender hands them to ctl as parts,
// an image as its head and page arrays, and the receiver re-attaches each
// slice, and each page of an image, as a sub-slice of the piece it arrived
// in, which for a part is the sender's own immutable bytes.

// wireCodec produces the gob part, and hands readHead its value. Every
// frame is self-contained — it opens with wireMsg's type descriptors,
// because the receiver reads each one independently — but the
// descriptors are the same bytes in every frame of a process, so the
// codec builds them once.
var wireCodec = gobmemo.New[wireMsg]()

// msgCodec frames messages on a ctl.Endpoint: the head and raw tail
// above, with the message's trace context and tier. A received message
// takes its frame's context here, before handlers defer behind CPU cost.
var msgCodec = ctl.Codec[*wireMsg]{
	Encode: func(buf *bytes.Buffer, m *wireMsg) ([][]byte, trace.SpanContext, ctl.Tier, error) {
		parts, err := encodeMsg(buf, m)
		return parts, m.ctx, m.tier, err
	},
	Decode: func(r ctl.PieceReader, ctx trace.SpanContext) (*wireMsg, error) {
		m, err := decodeMsg(r)
		if err == nil {
			m.ctx = ctx
		}
		return m, err
	},
}

// encodeMsg writes m's payload head into buf — everything up to the raw
// bytes — and returns the parts that follow it on the wire (nil for a
// bulk-free message).
func encodeMsg(buf *bytes.Buffer, m *wireMsg) ([][]byte, error) {
	p, images := m.Repl, m.images()
	if p == nil || !p.carriesBulk(images) {
		if err := wireCodec.Encode(buf, m); err != nil {
			return nil, fmt.Errorf("core: encode %v: %w", m.Type, err)
		}
		return nil, nil
	}
	n := 1 + len(p.Manifests) + len(p.Chunks) // parts, an image counting its head and pages
	for _, img := range images {
		n += 1 + int(img.MemoryBytes()/mem.PageSize)
	}
	head := *m
	head.Repl = p.stripped(images)
	if err := wireCodec.Encode(buf, &head); err != nil {
		return nil, fmt.Errorf("core: encode %v: %w", m.Type, err)
	}
	parts := make([][]byte, 0, n)
	entry := func(size int) {
		buf.Write(binary.BigEndian.AppendUint32(buf.AvailableBuffer(), uint32(size)))
	}
	entry(len(p.ECSet))
	parts = append(parts, p.ECSet)
	for _, img := range images {
		size, err := img.Size()
		if err == nil {
			parts, err = img.AppendParts(parts)
		}
		if err != nil {
			return nil, fmt.Errorf("core: encode %v: %w", m.Type, err)
		}
		entry(int(size))
	}
	for _, seq := range ckpt.SortedSeqs(p.Manifests) {
		entry(len(p.Manifests[seq]))
		parts = append(parts, p.Manifests[seq])
	}
	for _, c := range p.Chunks {
		entry(len(c.Data))
		parts = append(parts, c.Data)
	}
	return parts, nil
}

// carriesBulk reports whether the payload, with images, has a raw tail:
// an image, or a byte slice that is not empty.
func (p *replPayload) carriesBulk(images []*ckpt.Image) bool {
	n := len(images) + len(p.ECSet)
	for _, b := range p.Manifests {
		n += len(b)
	}
	for _, c := range p.Chunks {
		n += len(c.Data)
	}
	return n > 0
}

// decodeMsg parses one frame payload, read from the pieces it arrived in
// (see ctl.Codec). Each bulk slice of the result, and each page of an
// image, is what r.Next hands out: a capped sub-slice of the piece that
// holds it whole — for a part sent uncopied, the sender's own bytes — and
// a copy of what is split across pieces. The gob head is read from the
// first piece (readHead), which copies what it keeps, and the length
// table is only looked at, so a head-only frame keeps no byte of its
// connection's stage. A head split across pieces, which a live connection
// never delivers, is read from their join.
func decodeMsg(r ctl.PieceReader) (*wireMsg, error) {
	first := r.Piece()
	m, used, err := readHead(first)
	if err != nil && r.Len() > len(first) {
		m, used, err = readHead(r.Peek(r.Len()))
	}
	if err != nil {
		return nil, fmt.Errorf("core: decode frame: %w", err)
	}
	// What the gob value did not occupy is exactly the raw tail.
	r.Skip(used)
	if r.Len() == 0 {
		return m, nil
	}
	p := m.Repl
	if p == nil {
		return nil, fmt.Errorf("core: decode frame: %v carries %d raw bytes but no payload to hold them", m.Type, r.Len())
	}
	blobs, manifests := ckpt.SortedSeqs(p.Blobs), ckpt.SortedSeqs(p.Manifests)
	n := 1 + len(blobs) + len(manifests) + len(p.Chunks)
	if r.Len() < 4*n {
		return nil, fmt.Errorf("core: decode frame: %v length table of %d entries overruns the frame", m.Type, n)
	}
	table, entry := r.Peek(4*n), 0
	r.Skip(4 * n)
	// next returns the size of the next entry's bytes.
	next := func() (int, error) {
		size := uint64(binary.BigEndian.Uint32(table[4*entry:]))
		if entry++; size > uint64(r.Len()) {
			return 0, fmt.Errorf("core: decode frame: %v bulk slice %d of %d bytes overruns the frame", m.Type, entry-1, size)
		}
		return int(size), nil
	}
	slice := func() ([]byte, error) {
		size, err := next()
		if err != nil {
			return nil, err
		}
		return r.Next(size), nil
	}
	if p.ECSet, err = slice(); err != nil {
		return nil, err
	}
	if len(blobs) > 0 {
		m.tx = &ckpt.Transfer{Images: make([]*ckpt.Image, len(blobs))}
	}
	for i, seq := range blobs {
		size, err := next()
		if err != nil {
			return nil, err
		}
		img, err := ckpt.ReadImage(&r, size)
		if err == nil && img.Seq != seq {
			err = fmt.Errorf("image %d listed as %d", img.Seq, seq)
		}
		if err != nil {
			return nil, fmt.Errorf("core: decode frame: %v: %w", m.Type, err)
		}
		m.tx.Images[i] = img
	}
	p.Blobs = nil
	for _, seq := range manifests {
		if p.Manifests[seq], err = slice(); err != nil {
			return nil, err
		}
	}
	for i := range p.Chunks {
		if p.Chunks[i].Data, err = slice(); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("core: decode frame: %v has %d bytes beyond its length table", m.Type, r.Len())
	}
	return m, nil
}
