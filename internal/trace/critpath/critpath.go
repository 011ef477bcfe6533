// Package critpath reassembles distributed operations from a flat trace
// event stream and reports what bounds their end-to-end latency.
//
// Every span emitted under a traced operation carries the operation's
// OpID and its parent SpanID (internal/trace SpanContext, propagated
// across the wire in ctl frame headers). BuildTrees groups the Begin/End
// events by OpID and rebuilds one causally-linked span tree per
// operation — coordinator root, agent phases, replication exchanges and
// disk I/O on every node involved. Analyze then walks a tree twice:
//
//   - Phases: the root's direct children in chronological order, plus
//     any lead window the root declared (a "lead.<name>_us" begin
//     argument — e.g. the failure-detection window that elapses before a
//     recovery op can even begin). For sequential pipelines such as
//     recovery (place -> transfer -> restart) the phase durations sum to
//     the operation's total.
//   - Path: the critical path proper — the backward greedy walk that, at
//     every level, follows the child whose End bounds the parent's
//     completion, descending to the deepest span. Time no child covers
//     is attributed to the covering span as self time. The path segment
//     durations always sum to the operation's total, including for
//     trees with parallel branches where phase durations would not.
//
// Everything here is deterministic: trees, reports, and their renderings
// are pure functions of the event slice, and all orderings are explicit
// (time, then SpanID).
package critpath

import (
	"fmt"
	"sort"
	"strings"

	"cruz/internal/sim"
	"cruz/internal/trace"
)

// Span is one reassembled Begin/End pair inside an operation's tree.
type Span struct {
	ID     trace.SpanID
	Op     trace.OpID
	Parent trace.SpanID // zero for the operation root
	Node   string
	Cat    string
	Name   string
	Begin  sim.Time
	End    sim.Time
	// BeginArgs and EndArgs are the arguments carried on the Begin and
	// End events.
	BeginArgs []trace.Arg
	EndArgs   []trace.Arg
	// Children are this span's direct causal children, ordered by Begin
	// time (SpanID breaks ties).
	Children []*Span

	ended bool
}

// Duration is the span's measured extent (zero if it never ended).
func (s *Span) Duration() sim.Duration {
	if !s.ended {
		return 0
	}
	return s.End.Sub(s.Begin)
}

// Tree is one distributed operation's reassembled span tree.
type Tree struct {
	Op   trace.OpID
	Root *Span
	// Spans indexes every span of the operation by ID.
	Spans map[trace.SpanID]*Span
	// Nodes lists the simulated machines that contributed spans, in
	// first-appearance order — the cross-node footprint of the op.
	Nodes []string
	// Orphans are spans whose parent span was never observed (its Begin
	// fell off the ring). They are not reachable from Root.
	Orphans []*Span
}

// BuildTrees reassembles one tree per distributed operation found in the
// event stream, ordered by OpID. Events not linked to an operation
// (Op == 0) and non-span events are ignored.
func BuildTrees(events []trace.Event) []*Tree {
	trees := make(map[trace.OpID]*Tree)
	var order []trace.OpID
	for i := range events {
		ev := &events[i]
		if ev.Op == 0 {
			continue
		}
		tr, ok := trees[ev.Op]
		if !ok {
			tr = &Tree{Op: ev.Op, Spans: make(map[trace.SpanID]*Span)}
			trees[ev.Op] = tr
			order = append(order, ev.Op)
		}
		switch ev.Kind {
		case trace.KindBegin:
			s := &Span{
				ID: ev.Span, Op: ev.Op, Parent: ev.Parent,
				Node: ev.Node, Cat: ev.Cat, Name: ev.Name,
				Begin:     ev.At,
				BeginArgs: append([]trace.Arg(nil), ev.ArgSlice()...),
			}
			tr.Spans[s.ID] = s
			tr.addNode(s.Node)
		case trace.KindEnd:
			if s := tr.Spans[ev.Span]; s != nil {
				s.End = ev.At
				s.ended = true
				s.EndArgs = append([]trace.Arg(nil), ev.ArgSlice()...)
			}
		}
	}
	out := make([]*Tree, 0, len(order))
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, op := range order {
		tr := trees[op]
		tr.link()
		out = append(out, tr)
	}
	return out
}

// addNode records a node in first-appearance order.
func (t *Tree) addNode(node string) {
	for _, n := range t.Nodes {
		if n == node {
			return
		}
	}
	t.Nodes = append(t.Nodes, node)
}

// link wires parent/child edges and identifies the root and orphans.
func (t *Tree) link() {
	ids := make([]trace.SpanID, 0, len(t.Spans))
	for id := range t.Spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := t.Spans[id]
		if s.Parent == 0 {
			if t.Root == nil {
				t.Root = s
			} else {
				t.Orphans = append(t.Orphans, s)
			}
			continue
		}
		p := t.Spans[s.Parent]
		if p == nil {
			t.Orphans = append(t.Orphans, s)
			continue
		}
		p.Children = append(p.Children, s)
	}
	for _, id := range ids {
		s := t.Spans[id]
		sort.Slice(s.Children, func(i, j int) bool {
			a, b := s.Children[i], s.Children[j]
			if a.Begin != b.Begin {
				return a.Begin < b.Begin
			}
			return a.ID < b.ID
		})
	}
}

// FindRoot returns the first tree (by OpID) whose root span has the
// given name, or nil.
func FindRoot(trees []*Tree, name string) *Tree {
	for _, t := range trees {
		if t.Root != nil && t.Root.Name == name {
			return t
		}
	}
	return nil
}

// SegKind classifies a report segment.
type SegKind uint8

// Segment kinds: a lead window declared by the root, a traced span, or
// self time (parent time no child covers).
const (
	SegLead SegKind = iota
	SegSpan
	SegSelf
)

// Segment is one slice of an operation's latency.
type Segment struct {
	Name string
	Node string // empty for lead segments
	Ms   float64
	Kind SegKind
}

// Report is the latency decomposition of one operation.
type Report struct {
	Op   trace.OpID
	Root string // root span name
	Node string // root span node
	// TotalMs is the operation's end-to-end latency: declared lead
	// windows plus the root span's duration.
	TotalMs float64
	LeadMs  float64
	// Phases decomposes the operation top-level: lead segments, then the
	// root's direct children in chronological order, then the root's
	// residual self time. For sequential pipelines the phase Ms values
	// sum to TotalMs; for parallel fan-outs they can overlap (use Path).
	Phases []Segment
	// Path is the critical path: the chain of spans (with self-time
	// gaps) that bounds the root's completion. Segment Ms values sum to
	// TotalMs exactly.
	Path []Segment
}

// leadArgPrefix marks a root begin argument as a lead window in
// microseconds: "lead.detect_us" becomes lead segment "detect".
const (
	leadArgPrefix = "lead."
	leadArgSuffix = "_us"
)

// Analyze decomposes one operation tree. Returns nil if the tree has no
// root or the root span never ended.
func Analyze(t *Tree) *Report {
	if t == nil || t.Root == nil || !t.Root.ended {
		return nil
	}
	root := t.Root
	r := &Report{Op: t.Op, Root: root.Name, Node: root.Node}
	for _, a := range root.BeginArgs {
		if !a.IsStr && strings.HasPrefix(a.Key, leadArgPrefix) && strings.HasSuffix(a.Key, leadArgSuffix) {
			name := strings.TrimSuffix(strings.TrimPrefix(a.Key, leadArgPrefix), leadArgSuffix)
			ms := a.Num / 1e3
			r.LeadMs += ms
			r.Phases = append(r.Phases, Segment{Name: name, Ms: ms, Kind: SegLead})
		}
	}
	r.TotalMs = r.LeadMs + root.Duration().Milliseconds()

	// Phases: the root's direct children, chronological, plus self time.
	var covered sim.Duration
	for _, c := range root.Children {
		if !c.ended {
			continue
		}
		r.Phases = append(r.Phases, Segment{Name: c.Name, Node: c.Node, Ms: c.Duration().Milliseconds(), Kind: SegSpan})
		covered += c.Duration()
	}
	if self := root.Duration() - covered; self > 0 {
		r.Phases = append(r.Phases, Segment{Name: root.Name + " self", Node: root.Node, Ms: self.Milliseconds(), Kind: SegSelf})
	}

	// Path: lead segments, then the backward greedy walk from the root.
	for _, s := range r.Phases {
		if s.Kind == SegLead {
			r.Path = append(r.Path, s)
		}
	}
	r.Path = append(r.Path, criticalPath(root)...)
	return r
}

// criticalPath walks s backward from its End: at each step it descends
// into the ended child whose End is the latest not after the cursor,
// attributing uncovered time to the covering span as self time. The
// returned segments are chronological and their durations sum exactly to
// s's duration.
func criticalPath(s *Span) []Segment {
	segs := walkBack(s)
	// walkBack emits latest-first; flip to chronological.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

func walkBack(s *Span) []Segment {
	var segs []Segment
	cursor := s.End
	for cursor > s.Begin {
		// The child bounding the cursor: latest End <= cursor (IDs break
		// exact ties; children are Begin-ordered so scan all). Requiring
		// Begin < cursor guarantees the cursor strictly decreases — a
		// zero-duration child sitting exactly at the cursor would
		// otherwise be re-picked forever.
		var best *Span
		for _, c := range s.Children {
			if !c.ended || c.End > cursor || c.Begin >= cursor || c.Begin < s.Begin {
				continue
			}
			if best == nil || c.End > best.End || (c.End == best.End && c.ID > best.ID) {
				best = c
			}
		}
		if best == nil {
			segs = append(segs, Segment{Name: s.Name, Node: s.Node, Ms: cursor.Sub(s.Begin).Milliseconds(), Kind: selfKind(s)})
			return segs
		}
		if gap := cursor.Sub(best.End); gap > 0 {
			segs = append(segs, Segment{Name: s.Name, Node: s.Node, Ms: gap.Milliseconds(), Kind: SegSelf})
		}
		segs = append(segs, walkBack(best)...)
		cursor = best.Begin
	}
	return segs
}

// selfKind labels a span's own contribution: a leaf span counts as a
// span segment, an interior span's uncovered prefix as self time.
func selfKind(s *Span) SegKind {
	if len(s.Children) == 0 {
		return SegSpan
	}
	return SegSelf
}

// Summary renders the report as one line, e.g.
//
//	recovery op=3 [svc] total 412.000 ms = detect 350.000 + recovery.place 2.000 + ...
func (r *Report) Summary() string {
	// Phases tile the root exactly for sequential pipelines (recovery);
	// then "= a + b" is real arithmetic. Parallel fan-out (per-agent
	// checkpoint spans) overlaps, so render "; a | b" instead of
	// implying a sum that does not hold.
	sum := 0.0
	for _, s := range r.Phases {
		sum += s.Ms
	}
	lead, sep := " =", " +"
	if d := sum - r.TotalMs; d > 1e-6 || d < -1e-6 {
		lead, sep = ";", " |"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s op=%d [%s] total %.3f ms%s", r.Root, r.Op, r.Node, r.TotalMs, lead)
	for i, s := range r.Phases {
		if i > 0 {
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, " %s %.3f", s.Name, s.Ms)
	}
	return b.String()
}

// Format renders the full decomposition as a two-part table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "op %d %s [%s] total %.3f ms (lead %.3f ms)\n", r.Op, r.Root, r.Node, r.TotalMs, r.LeadMs)
	b.WriteString("phases:\n")
	writeSegs(&b, r.Phases)
	b.WriteString("critical path:\n")
	writeSegs(&b, r.Path)
	return b.String()
}

func writeSegs(b *strings.Builder, segs []Segment) {
	for _, s := range segs {
		node := s.Node
		switch s.Kind {
		case SegLead:
			node = "(lead)"
		case SegSelf:
			node += " (self)"
		}
		fmt.Fprintf(b, "  %-28s %-18s %12.3f ms\n", s.Name, node, s.Ms)
	}
}

// Format renders the tree indented, children ordered by Begin then ID.
// Offsets are relative to the root span's Begin.
func (t *Tree) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "op %d spans=%d nodes=%s\n", t.Op, len(t.Spans), strings.Join(t.Nodes, ","))
	if t.Root != nil {
		writeSpan(&b, t.Root, t.Root.Begin, 1)
	}
	for _, o := range t.Orphans {
		fmt.Fprintf(&b, "  (orphan)\n")
		writeSpan(&b, o, o.Begin, 1)
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, base sim.Time, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if s.ended {
		fmt.Fprintf(b, "%s [%s] @%.3f +%.3f ms\n",
			s.Name, s.Node, s.Begin.Sub(base).Milliseconds(), s.Duration().Milliseconds())
	} else {
		fmt.Fprintf(b, "%s [%s] @%.3f +open\n", s.Name, s.Node, s.Begin.Sub(base).Milliseconds())
	}
	for _, c := range s.Children {
		writeSpan(b, c, base, depth+1)
	}
}
