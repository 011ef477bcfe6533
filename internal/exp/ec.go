package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/scenario"
)

// ECScheme names one durability configuration of the ablation.
type ECScheme string

const (
	// SchemeRepl3 is 3-way ring replication (PR 3's durability tier):
	// every committed image streams whole to three peers.
	SchemeRepl3 ECScheme = "repl_k3"
	// SchemeEC42 is the erasure-coded tier: 4 data + 2 parity shards per
	// stripe, one shard subset per holder.
	SchemeEC42 ECScheme = "ec_4p2"
)

// ECRow reports one scheme's run of the erasure-coding ablation: the
// bytes durability moved for the first (full) and second (incremental)
// checkpoint, the storage overhead factor, and the MTTR decomposition of
// a kill-and-recover — with the reconstruct window broken out for the EC
// scheme, where the new home decodes the image instead of fetching a
// surviving replica.
type ECRow struct {
	Nodes  int
	Scheme ECScheme

	// ImageMB is the committed checkpoint's total image bytes.
	ImageMB float64
	// WireMB is what the first checkpoint's durability distribution
	// shipped (replica streams or shard subsets — also what landed on
	// peer disks, since the delta protocol only ships what is missing).
	WireMB float64
	// SteadyMB is the same measure for the second, incremental
	// checkpoint: the steady-state durability cost per checkpoint.
	SteadyMB float64
	// Overhead is WireMB / ImageMB — the durable-copies factor
	// (k for replication, (m+r)/m for erasure coding).
	Overhead float64

	DetectMs      float64
	TransferMs    float64
	ReconstructMs float64
	RestartMs     float64
	MTTRMs        float64
}

// durabilityBytes sums what every agent's durability protocol shipped so
// far (full replica streams plus erasure-coded shard subsets).
func durabilityBytes(cl *cruz.Cluster) int64 {
	var n int64
	for _, node := range cl.Nodes {
		n += node.Agent.Stats.ReplBytes + node.Agent.Stats.ECShardBytes
	}
	return n
}

// ecAblationRun measures one scheme: deploy the n-pod slm ring, take two
// deduplicated checkpoints (full then incremental) measuring durability
// bytes for each, then kill a pod-hosting node and report the automatic
// recovery's MTTR split.
func ecAblationRun(n int, scale float64, scheme ECScheme) (*ECRow, error) {
	cfg := cruz.Config{Nodes: n, Seed: int64(n)*131 + 17, AutoRecover: true}
	switch scheme {
	case SchemeRepl3:
		cfg.Replicas = 3
	case SchemeEC42:
		cfg.EC = cruz.ECParams{M: 4, R: 2}
	default:
		return nil, fmt.Errorf("exp: unknown EC scheme %q", scheme)
	}
	// Wide cells reuse the A9 light workload so n=64 stays tractable;
	// paper-scale cells use the benchmark slm configuration.
	wcfg := slmConfig(n, scale)
	if n > 16 {
		wcfg = wideSlmConfig(n, scale)
		// Keep each partition a few dozen chunks so stripe padding (a
		// partial final stripe per image) stays a rounding error in the
		// byte comparison rather than dominating it.
		if wcfg.GridBytes < 256<<10 {
			wcfg.GridBytes = 256 << 10
		}
	}
	// Salt each rank's grid: the default fill gives every rank the same
	// page set, so cross-pod dedup would ship replication almost for
	// free and invert the byte comparison this ablation exists for.
	wcfg.UniquePages = true
	r, err := warmRing(cfg, scenario.Ring{Name: "ec", SLM: wcfg})
	if err != nil {
		return nil, err
	}

	// durable drives one deduplicated checkpoint and waits until the
	// coordinator has registered its full durability placement.
	durable := func() (*cruz.CheckpointResult, error) {
		res, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{Dedup: true})
		if err == nil && !r.Durable(r.job.Name, res.Seq, 5*60*cruz.Second) {
			err = fmt.Errorf("exp: ec durability never settled (n=%d %s seq=%d)", n, scheme, res.Seq)
		}
		return res, err
	}

	first, err := durable()
	if err != nil {
		return nil, err
	}
	wire := durabilityBytes(r.Cluster)
	row := &ECRow{
		Nodes: n, Scheme: scheme,
		ImageMB:  float64(first.TotalImageBytes) / (1 << 20),
		WireMB:   float64(wire) / (1 << 20),
		Overhead: float64(wire) / float64(first.TotalImageBytes),
	}

	// Steady state: run on, checkpoint incrementally, measure the delta
	// the durability tier ships (unchanged chunks — and for EC unchanged
	// stripes' parity — dedupe away on re-offer).
	r.Cluster.Run(200 * cruz.Millisecond)
	if _, err := durable(); err != nil {
		return nil, err
	}
	row.SteadyMB = float64(durabilityBytes(r.Cluster)-wire) / (1 << 20)

	// Kill the pod host. Under replication the new home is usually a
	// replica holder (free transfer); under EC nobody holds the full
	// image, so the new home pulls M shard subsets and reconstructs.
	res, err := r.Fail(1)
	if err != nil {
		return nil, fmt.Errorf("exp: ec n=%d %s recovery: %w", n, scheme, err)
	}
	row.DetectMs = res.Detect.Milliseconds()
	row.TransferMs = res.Transfer.Milliseconds()
	row.ReconstructMs = res.Reconstruct.Milliseconds()
	row.RestartMs = res.Restart.Milliseconds()
	row.MTTRMs = res.MTTR.Milliseconds()

	// The job must run again: every pod steps past where it stands now.
	if !r.advance(1, 60*cruz.Second) {
		return nil, fmt.Errorf("exp: ec n=%d %s: ring stuck after recovery", n, scheme)
	}
	if err := r.Check(); err != nil {
		return nil, fmt.Errorf("exp: ec n=%d %s: %w", n, scheme, err)
	}
	return row, nil
}

// ECAblation is the storage-tier ablation the erasure-coding design
// argues from: for each node count, the same workload runs under 3-way
// replication and under 4+2 erasure coding, reporting durability bytes
// (first and steady-state checkpoints), the storage overhead factor, and
// the MTTR decomposition of an automatic kill-and-recover — where the EC
// scheme pays a reconstruct window for its ~2× byte savings.
func ECAblation(nodeCounts []int, scale float64) ([]ECRow, error) {
	var rows []ECRow
	for _, n := range nodeCounts {
		for _, scheme := range []ECScheme{SchemeRepl3, SchemeEC42} {
			row, err := ecAblationRun(n, scale, scheme)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}
