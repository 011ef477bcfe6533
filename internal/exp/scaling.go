package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/coord"
	"cruz/internal/scenario"
	"cruz/internal/sim"
)

// ScalingRow is one cell of the A9 scaling ablation: a coordinated
// checkpoint of an n-pod job under flat or hierarchical (two-level
// tree) coordination.
type ScalingRow struct {
	Nodes int
	// GroupSize is the tree's group size (0 = flat fan-out).
	GroupSize int
	// Messages is the root coordinator's control-message count for the
	// checkpoint: sends plus receives on its connections to the job.
	// Flat grows O(N); the tree grows O(N/size) = O(√N).
	Messages int
	// LatencyMs is the coordinated commit latency at the root.
	LatencyMs float64
}

// Tree reports whether the row used hierarchical coordination.
func (r ScalingRow) Tree() bool { return r.GroupSize > 1 }

// wideSlmConfig is the reduced workload for wide clusters: small grids
// keep n=256 image writes cheap while every pod still computes,
// exchanges halos, and saves real state. scale multiplies the grid as
// elsewhere, with a floor so images stay non-trivial.
func wideSlmConfig(workers int, scale float64) slm.Config {
	grid := uint64(float64(64<<10) * scale)
	if grid < 16<<10 {
		grid = 16 << 10
	}
	return slm.Config{
		Workers:             workers,
		Steps:               0,
		TotalComputePerStep: 2 * sim.Millisecond,
		StepOverhead:        200 * sim.Microsecond,
		HaloBytes:           1 << 10,
		GridBytes:           grid,
		DirtyPagesPerStep:   4,
		Port:                9300,
	}
}

// scalingCell runs one (n, groupSize) configuration — groupSize 0 keeps
// the flat fan-out: deploy the light ring, warm up, checkpoint once, and
// report the root's message count and commit latency.
func scalingCell(n, groupSize int, scale float64) (ScalingRow, error) {
	r, err := warmRing(cruz.Config{Nodes: n, Seed: int64(n)*131 + 3, GroupSize: groupSize},
		scenario.Ring{Name: "ring", Pods: "w%03d", SLM: wideSlmConfig(n, scale)})
	if err != nil {
		return ScalingRow{}, err
	}
	res, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{})
	if err != nil {
		return ScalingRow{}, fmt.Errorf("exp: scaling n=%d size=%d: %w", n, groupSize, err)
	}
	row := ScalingRow{
		Nodes:     n,
		GroupSize: groupSize,
		Messages:  res.Messages,
		LatencyMs: res.Latency.Milliseconds(),
	}
	if err := r.Check(); err != nil {
		return ScalingRow{}, fmt.Errorf("exp: scaling n=%d size=%d: %w", n, groupSize, err)
	}
	return row, nil
}

// Scaling runs the A9 scaling ablation: for each node count, a flat and
// a tree (group size ⌈√N⌉) checkpoint of the light slm ring. The flat
// rows pin the O(N) root fan-out, the tree rows the O(√N) aggregate;
// commit decisions are identical either way (see the equivalence tests),
// so the comparison isolates coordination cost.
func Scaling(nodeCounts []int, scale float64) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, n := range nodeCounts {
		for _, size := range []int{0, coord.GroupSizeFor(n)} {
			row, err := scalingCell(n, size, scale)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ScalingNodeCounts is the default sweep: the paper-scale cluster and
// the two wide configurations the hierarchical coordinator targets.
var ScalingNodeCounts = []int{8, 64, 256}
