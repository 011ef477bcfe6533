// Wall-clock benchmarks of whole-cluster operations: what the simulator
// itself spends on a coordinated checkpoint (with tracing off and on) and
// on replicating a committed image. Both report B/op and allocs/op and
// run under make gobench. The paper's evaluation — virtual time — is
// cmd/cruzbench's, recorded in BENCH_cruz.json.
package cruz_test

import (
	"fmt"
	"testing"

	"cruz"
)

// BenchmarkCheckpoint measures the simulator-side cost (wall-clock time
// and allocations) of a full coordinated checkpoint cycle, with tracing
// off and on. The trace=false case is the regression baseline: enabling
// the tracing subsystem must not change it, and the trace=true case
// bounds the tracer's own overhead.
func BenchmarkCheckpoint(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%v", traced), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := cruz.New(cruz.Config{Nodes: 2, Seed: 11, Trace: traced})
				if err != nil {
					b.Fatal(err)
				}
				_, job := deployRing(b, cl, 2)
				cl.Run(50 * cruz.Millisecond)
				res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cl.Run(20 * cruz.Millisecond)
				b.SetBytes(res.TotalImageBytes)
			}
		})
	}
}

// BenchmarkReplicateImage measures the simulator-side cost of making a
// committed blob image durable on one replica, end to end through the
// agents: offer, want, the data frame through ctl and TCP, adoption into
// the replica's store, done. Two pods of 8 MiB each replicate to their
// ring peer per iteration; only the replication is timed.
func BenchmarkReplicateImage(b *testing.B) {
	cfg := smallSlm(2)
	cfg.GridBytes = 8 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := cruz.New(cruz.Config{Nodes: 2, Seed: 11, Replicas: 1})
		if err != nil {
			b.Fatal(err)
		}
		_, job := deployRingCfg(b, cl, cfg)
		cl.Run(50 * cruz.Millisecond)
		b.StartTimer()
		// Replication starts when the checkpoint commits and runs behind
		// it; the checkpoint itself is BenchmarkCheckpoint's business but
		// cannot be separated from what it triggers.
		res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ok := cl.RunUntil(func() bool {
			return cl.Nodes[0].Agent.Stats.Replications == 1 && cl.Nodes[1].Agent.Stats.Replications == 1
		}, 10*cruz.Second)
		if !ok {
			b.Fatal("replication never completed")
		}
		b.SetBytes(res.TotalImageBytes)
	}
}
