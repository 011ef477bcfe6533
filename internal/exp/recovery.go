package exp

import (
	"fmt"

	"cruz"
)

// RecoveryConfig is one automatic-recovery configuration to measure:
// how many replicas each checkpoint keeps and how many standby nodes
// are available as restart targets.
type RecoveryConfig struct {
	Replicas int
	Spares   int
}

// RecoveryRow reports one configuration's kill-and-recover run with the
// MTTR split into the phases §3's failure-handling design implies:
// lease-based detection, placement, image transfer (zero when the new
// home already replicates the image), and coordinated restart.
type RecoveryRow struct {
	Nodes    int
	Replicas int
	Spares   int

	DetectMs   float64
	PlaceMs    float64
	TransferMs float64
	RestartMs  float64
	MTTRMs     float64
	// TransferMB is what the recovery fetches actually moved.
	TransferMB float64
	// Target is the node the failed pod was re-homed to.
	Target string
}

// recoveryCluster deploys the slm ring on an auto-recovering cluster and
// takes one checkpoint, waiting until every pod-hosting agent has
// finished streaming its replicas so a node kill cannot outrun them.
// With traced set, the full tracing subsystem is on (sized so a
// kill-and-recover run cannot overflow the ring).
func recoveryCluster(n int, scale float64, cfg RecoveryConfig, traced bool) (*ring, error) {
	r, err := slmRing(cruz.Config{
		Nodes: n, Replicas: cfg.Replicas, AutoRecover: true, Spares: cfg.Spares,
		Trace: traced, TraceCapacity: 1 << 17,
	}, slmConfig(n, scale))
	if err != nil {
		return nil, err
	}
	res, err := r.Cluster.Checkpoint(r.job, cruz.CheckpointOptions{})
	if err != nil {
		return nil, err
	}
	// Gate on the coordinator's holder registry, not the agents' counters:
	// an agent counts a replication in the event that enqueues its
	// <replicated> report, one network flight before the coordinator can
	// use the copy for placement — a node kill must not outrun that.
	if !r.Durable(r.job.Name, res.Seq, 60*cruz.Second) {
		return nil, fmt.Errorf("exp: recovery replication never completed (n=%d k=%d)", n, cfg.Replicas)
	}
	return r, nil
}

// Recovery measures automatic failure recovery (§3): for each
// configuration it checkpoints the n-node slm ring with k replicas,
// kills a node mid-run, and reports the MTTR phase breakdown of the
// automatic restart. The shape claims: detection is bounded by the
// lease timeout regardless of configuration, and a replica-holding
// target makes the transfer phase free.
func Recovery(n int, scale float64, cfgs []RecoveryConfig) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, cfg := range cfgs {
		r, err := recoveryCluster(n, scale, cfg, false)
		if err != nil {
			return nil, err
		}
		res, err := r.Fail(1)
		if err != nil {
			return nil, fmt.Errorf("exp: recovery k=%d s=%d: %w", cfg.Replicas, cfg.Spares, err)
		}
		if !r.advance(1, 60*cruz.Second) {
			return nil, fmt.Errorf("exp: recovery k=%d s=%d: ring stuck after recovery", cfg.Replicas, cfg.Spares)
		}
		target := ""
		if len(res.Pods) > 0 {
			target = res.Pods[0].To
		}
		rows = append(rows, RecoveryRow{
			Nodes:      n,
			Replicas:   cfg.Replicas,
			Spares:     cfg.Spares,
			DetectMs:   res.Detect.Milliseconds(),
			PlaceMs:    res.Place.Milliseconds(),
			TransferMs: res.Transfer.Milliseconds(),
			RestartMs:  res.Restart.Milliseconds(),
			MTTRMs:     res.MTTR.Milliseconds(),
			TransferMB: float64(res.TransferBytes) / (1 << 20),
			Target:     target,
		})
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: recovery k=%d s=%d: %w", cfg.Replicas, cfg.Spares, err)
		}
	}
	return rows, nil
}
