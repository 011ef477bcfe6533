package cruz_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cruz"
	"cruz/internal/core"
)

// doubleFaultCluster is the bench/README gap-4 deployment: a four-pod ring,
// two spares, one checkpoint held three times over (the commit holder and
// two ring peers) — every copy known to the coordinator's registry, which
// learns of a replica one network flight after the agent counts it.
func doubleFaultCluster(t *testing.T) (*cruz.Cluster, []string, *cruz.Job) {
	t.Helper()
	cl, names, job := replicatedCluster(t, cruz.Config{
		Nodes: 4, Spares: 2, Replicas: 2, AutoRecover: true,
	}, 4)
	registered := cl.RunUntil(func() bool {
		for _, name := range names {
			if cl.Coordinator.KnownHolders(name, 1) < 3 {
				return false
			}
		}
		return true
	}, cruz.Second)
	if !registered {
		t.Fatal("the coordinator never learned of every replica")
	}
	return cl, names, job
}

// checkRecovered asserts the job came back whole after the nodes in dead
// were lost: no recovery error, every pod homed on a live node and
// stepping, and the cluster's Check clean.
func checkRecovered(t *testing.T, cl *cruz.Cluster, names []string, dead ...int) {
	t.Helper()
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(cl.Recoveries()) == 0 {
		t.Fatal("no recovery completed")
	}
	before := map[string]int{}
	for _, name := range names {
		if slices.Contains(dead, cl.PodNode(name).Index) {
			t.Fatalf("pod %s is still homed on dead %s", name, cl.PodNode(name).Kernel.Name())
		}
		if cl.Pod(name).Process(1) == nil {
			t.Fatalf("pod %s has no process on %s", name, cl.PodNode(name).Kernel.Name())
		}
		before[name] = ringWorker(cl, name).StepsDone
	}
	cl.Run(300 * cruz.Millisecond)
	for _, name := range names {
		if w := ringWorker(cl, name); w.StepsDone <= before[name] {
			t.Errorf("pod %s after recovery: steps %d -> %d", name, before[name], w.StepsDone)
		}
	}
	check(t, cl)
}

// TestSecondNodeFailureReplansRecovery is the gap-4 regression: a second
// node dies d after the first, for d from "the same instant" to "well after
// the first recovery finished". Whatever the first recovery was doing when
// the second lease expired — not yet started, placing, fetching from the
// node that just died, restarting — the job must end up recovered, not
// failed and not wedged with every pod frozen. At d = 0 both leases expire
// on one heartbeat tick and a single plan moves both pods.
func TestSecondNodeFailureReplansRecovery(t *testing.T) {
	for d := cruz.Duration(0); d <= 520*cruz.Millisecond; d += 40 * cruz.Millisecond {
		d := d
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			cl, names, _ := doubleFaultCluster(t)
			cl.FailNode(1)
			cl.Run(d)
			cl.FailNode(2)
			cl.Run(3 * cruz.Second)
			checkRecovered(t, cl, names, 1, 2)
			if d == 0 {
				if rs := cl.Recoveries(); len(rs) != 1 || len(rs[0].Pods) != 2 {
					t.Fatalf("simultaneous failures: %d recoveries, first moves %+v; want one moving both pods", len(rs), rs[0].Pods)
				}
			}
		})
	}
}

// TestRecoveryAfterMigration: a member's node dies while another pod of
// the job has just migrated — the migration commits before the lease
// expires, so the survivor's new home never held the checkpoint the job
// rolls back to and must fetch it in place — or is mid-migration: the
// migration holds the job's key when the lease expires and must yield, the
// source resuming its pod. Both end with the whole ring recovered and
// advancing. The delays hang off the lease expiry a migration-free run of
// the same seed measures (a stop-and-copy of these pods takes 40 vms).
func TestRecoveryAfterMigration(t *testing.T) {
	cl, _, _ := doubleFaultCluster(t)
	cl.FailNode(2)
	failedAt := cl.Engine.Now()
	if !cl.RunUntil(func() bool { return cl.Coordinator.OpenOps() > 0 }, cruz.Second) {
		t.Fatal("the lease never expired")
	}
	expiry := cl.Engine.Now().Sub(failedAt)
	// From its first instant to its last a recovery is one entry in the
	// coordinator's table: its restart runs on the recovery's own op.
	for ms := 0; len(cl.Recoveries()) == 0; ms++ {
		if n := cl.Coordinator.OpenOps(); n != 1 || ms > 1000 {
			t.Fatalf("%d ms into the recovery the coordinator holds %d ops, want 1 until it completes", ms, n)
		}
		cl.Run(cruz.Millisecond)
	}

	for _, tc := range []struct {
		name    string
		lead    cruz.Duration // how long before the expiry the migration starts
		commits bool
	}{
		{"committed", 80 * cruz.Millisecond, true},
		{"in flight", 20 * cruz.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, names, job := doubleFaultCluster(t)
			cl.FailNode(2)
			cl.Run(expiry - tc.lead)
			merr := errors.New("the migration never ended")
			cl.Coordinator.Migrate(job, names[0], cl.Nodes[4].Agent.Addr(), cruz.MigrateOptions{},
				func(_ *cruz.MigrationResult, err error) { merr = err })
			cl.Run(3 * cruz.Second)
			// Only a migration in flight at the expiry ends with ErrNodeFailed.
			if (merr == nil) != tc.commits || (merr != nil && !errors.Is(merr, core.ErrNodeFailed)) {
				t.Fatalf("migration ended with %v; want committed: %v, else aborted by the node failure", merr, tc.commits)
			}
			checkRecovered(t, cl, names, 2)
			if !tc.commits {
				return
			}
			for _, rp := range cl.Recoveries()[0].Pods {
				if rp.Pod == names[0] && rp.To == "node4" && rp.Transferred {
					return
				}
			}
			t.Errorf("the plan %+v has no fetch in place for the migrated %s on node4", cl.Recoveries()[0].Pods, names[0])
		})
	}
}
