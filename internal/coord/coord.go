// Package coord computes the deterministic two-level aggregation tree
// used by the hierarchical checkpoint coordinator.
//
// Cruz's global coordinator (§3 of the paper) fans the 2PC out to every
// agent from one root; with hundreds of nodes the root's serialized
// message handling becomes the bottleneck. This package partitions a
// job's members into contiguous groups of roughly √N members. A
// deterministic leader per group relays the root's messages to its
// group and aggregates the members' votes, so the root exchanges
// messages with only ⌈N/size⌉ leaders per protocol phase.
//
// Everything here is a pure function of the member order and the
// liveness predicate: the same inputs always yield the same tree, which
// keeps same-seed runs byte-identical and makes leader replacement
// after a lease expiry reproducible — the next live member of the group,
// in member order, is promoted.
package coord

import "math"

// Group is one aggregation unit of the two-level tree. Members are
// indexes into the job's member list, in job order; Leader is one of
// Members.
type Group struct {
	// Leader is the member index that relays and aggregates for the
	// group. -1 if no member of the group is alive.
	Leader int
	// Members are the group's member indexes, leader included.
	Members []int
}

// GroupSizeFor returns the default group size for n members: ⌈√n⌉.
// This balances the root's fan-out (⌈n/size⌉ leaders) against each
// leader's fan-out (size members), minimizing the larger of the two.
func GroupSizeFor(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

// Plan partitions n members into contiguous groups of at most size and
// picks each group's leader: the first member of the group for which
// alive returns true. A nil alive treats every member as alive.
//
// The partition depends only on n and size — never on liveness — so a
// lease expiry between two operations moves a leadership, not the group
// boundaries. That is what makes the promotion deterministic: the
// members of a group agree on the replacement (the next live member in
// order) without any election traffic.
func Plan(n, size int, alive func(int) bool) []Group {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = GroupSizeFor(n)
	}
	groups := make([]Group, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		g := Group{Leader: -1, Members: make([]int, 0, end-start)}
		for i := start; i < end; i++ {
			g.Members = append(g.Members, i)
			if g.Leader < 0 && (alive == nil || alive(i)) {
				g.Leader = i
			}
		}
		groups = append(groups, g)
	}
	return groups
}
