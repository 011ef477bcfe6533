package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/metrics"
	"cruz/internal/scenario"
)

// MigrateRow is one variant of the live-migration ablation (A10): the
// same pod bounced between a loaded node and a spare, live (pre-copy
// rounds + address takeover) versus stop-and-copy.
type MigrateRow struct {
	Variant    string
	Migrations int
	// DowntimeMs is the application-visible gap per migration: source
	// freeze to the pod running (resumed, ARP announced) on the
	// destination. The paper-level claim: O(image size) for
	// stop-and-copy collapsing to O(residual dirty set) live.
	DowntimeMs float64
	// LatencyMs is the whole operation, first message to commit; the
	// live variant pays more here (rounds stream while the pod runs).
	LatencyMs float64
	// Rounds is the mean pre-copy round count before the freeze.
	Rounds float64
	// StreamedMB is what the delta transfers moved per migration,
	// rounds plus residual.
	StreamedMB float64
}

// migrateVariants are the two transfer strategies the ablation compares.
var migrateVariants = []struct {
	name string
	live bool
}{
	{"live-precopy", true},
	{"stop-and-copy", false},
}

// migrateOpts builds the pre-copy configuration for one live migration.
// slm dirties in bursts (the whole write set at each step boundary), so
// a sub-step threshold makes the rounds run until one lands inside a
// step's compute window and catches a near-empty dirty set — the
// residual then carries fixed takeover costs, not image volume.
func migrateOpts(live bool, dirtyPerStep int) cruz.MigrateOptions {
	if !live {
		return cruz.MigrateOptions{}
	}
	threshold := dirtyPerStep / 2
	if threshold < 16 {
		threshold = 16
	}
	return cruz.MigrateOptions{Precopy: cruz.PrecopyConfig{
		MaxRounds:           10,
		DirtyThresholdPages: threshold,
	}}
}

// MigrateAblation measures live pod migration against the stop-and-copy
// baseline (A10): an n-worker slm ring plus one spare node, pod slm-1
// bounced spare-and-back migs times per variant. Live migration streams
// pre-copy rounds through the replication delta protocol while the pod
// runs and freezes only for the residual dirty set; stop-and-copy
// freezes for the whole image.
func MigrateAblation(n, migs int, scale float64) ([]MigrateRow, error) {
	cfg := slmConfig(n, scale)
	var rows []MigrateRow
	for _, v := range migrateVariants {
		// Node n is the idle migration target.
		r, err := warmRing(cruz.Config{Nodes: n + 1, Seed: int64(n)*131 + 3}, scenario.Ring{Name: "slm", Size: n, SLM: cfg})
		if err != nil {
			return nil, err
		}
		var down, lat, rounds, streamed metrics.Summary
		for k := 0; k < migs; k++ {
			target := n // the spare
			if k%2 == 1 {
				target = 1 // back home
			}
			res, err := r.Cluster.Migrate(r.job, "slm-1", target, migrateOpts(v.live, cfg.DirtyPagesPerStep))
			if err != nil {
				return nil, fmt.Errorf("exp: migrate %s hop %d: %w", v.name, k, err)
			}
			down.AddDuration(res.Downtime)
			lat.AddDuration(res.Latency)
			rounds.Add(float64(res.Rounds))
			streamed.Add(float64(res.BytesStreamed))
			r.Cluster.Run(300 * cruz.Millisecond)
		}
		rows = append(rows, MigrateRow{
			Variant:    v.name,
			Migrations: migs,
			DowntimeMs: down.Mean(),
			LatencyMs:  lat.Mean(),
			Rounds:     rounds.Mean(),
			StreamedMB: streamed.Mean() / (1 << 20),
		})
		if err := r.Check(); err != nil {
			return nil, fmt.Errorf("exp: migrate %s: %w", v.name, err)
		}
	}
	return rows, nil
}
