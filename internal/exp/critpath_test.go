package exp

import (
	"strings"
	"testing"
)

func TestCritPathShape(t *testing.T) {
	cp, err := CritPath(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// CritPath self-checks the cross-node tree shape, the 1% MTTR
	// agreement, and the lease-expiry dump; here assert what the report
	// contains on top of the experiment's own gates.
	if cp.Recovery.LeadMs < 350 {
		t.Fatalf("recovery lead (detect) = %.3f ms, want >= lease timeout", cp.Recovery.LeadMs)
	}
	var names []string
	for _, s := range cp.Recovery.Phases {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"detect", "place", "transfer", "restart"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("recovery phases %v missing %s", names, want)
		}
	}
	// The checkpoint tree fans out in parallel, so its path must sum to
	// its total even though phases overlap.
	var pathSum float64
	for _, s := range cp.Checkpoint.Path {
		pathSum += s.Ms
	}
	if diff := pathSum - cp.Checkpoint.TotalMs; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("checkpoint path sum %.6f != total %.6f", pathSum, cp.Checkpoint.TotalMs)
	}
	// The lease-expiry dump must actually hold the pre-failure window.
	if len(cp.Dump.Events) == 0 {
		t.Fatal("lease-expiry flight dump is empty")
	}
	if cp.Dump.Reason != "node node1" {
		t.Fatalf("dump reason = %q, want the failed node", cp.Dump.Reason)
	}
	// Byte-identical re-run: same seed, same trees, same tables.
	cp2, err := CritPath(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := cp.RecoveryTree.Format(), cp2.RecoveryTree.Format(); a != b {
		t.Fatalf("recovery tree not deterministic:\n%s\n---\n%s", a, b)
	}
	if a, b := cp.Recovery.Format(), cp2.Recovery.Format(); a != b {
		t.Fatal("recovery report not deterministic")
	}
	if a, b := cp.Dump.Format(), cp2.Dump.Format(); a != b {
		t.Fatal("flight dump not deterministic")
	}
}
