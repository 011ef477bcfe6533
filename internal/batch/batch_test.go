package batch

import (
	"errors"
	"testing"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/sim"
)

func init() {
	cruz.RegisterProgram(&slm.Worker{})
}

func slmSpec(name string, tasks, steps int, ckptEvery cruz.Duration) JobSpec {
	cfg := slm.Config{
		Workers:             tasks,
		Steps:               steps,
		TotalComputePerStep: 4 * sim.Millisecond,
		StepOverhead:        500 * sim.Microsecond,
		HaloBytes:           4 << 10,
		GridBytes:           1 << 20,
		DirtyPagesPerStep:   16,
		Port:                9200,
	}
	return JobSpec{
		Name:            name,
		Tasks:           tasks,
		CheckpointEvery: ckptEvery,
		Make: func(rank, n int, ips []cruz.Addr) cruz.Program {
			return slm.NewWorker(cfg, rank, ips[(rank+1)%n])
		},
	}
}

func newCluster(t *testing.T, nodes int) *cruz.Cluster {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestSubmitAndComplete(t *testing.T) {
	cl := newCluster(t, 3)
	s := New(cl)
	job, err := s.Submit(slmSpec("wx", 3, 30, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !cl.RunUntil(func() bool { return job.State() == StateCompleted }, 10*cruz.Second) {
		t.Fatalf("job never completed; state=%v", job.State())
	}
}

func TestPeriodicCheckpoints(t *testing.T) {
	cl := newCluster(t, 2)
	s := New(cl)
	job, err := s.Submit(slmSpec("wx", 2, 0 /* forever */, 100*cruz.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(650 * cruz.Millisecond)
	if job.Checkpoints < 4 || job.Checkpoints > 7 {
		t.Fatalf("checkpoints in 650ms at 100ms interval = %d", job.Checkpoints)
	}
	if job.CheckpointErrs != 0 {
		t.Fatalf("checkpoint errors: %d", job.CheckpointErrs)
	}
	if job.LastResult == nil || job.LastResult.Seq != job.Checkpoints {
		t.Fatalf("last result %+v", job.LastResult)
	}
}

func TestSuspendResume(t *testing.T) {
	cl := newCluster(t, 2)
	s := New(cl)
	job, err := s.Submit(slmSpec("wx", 2, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(300 * cruz.Millisecond)
	stepsAt := cl.Pod("wx-0").Process(1).Program().(*slm.Worker).StepsDone
	if stepsAt == 0 {
		t.Fatal("no progress before suspend")
	}
	if err := job.Suspend(); err != nil {
		t.Fatal(err)
	}
	if job.State() != StateSuspended {
		t.Fatalf("state = %v", job.State())
	}
	// While suspended, the cluster's nodes are free: no job processes.
	for _, n := range cl.Nodes {
		if len(n.Kernel.Processes()) > 1 { // the agent owns no processes; allow daemons
			for _, p := range n.Kernel.Processes() {
				t.Fatalf("process %q still running while suspended", p.Name())
			}
		}
	}
	cl.Run(500 * cruz.Millisecond)
	if err := job.Resume(); err != nil {
		t.Fatal(err)
	}
	w := cl.Pod("wx-0").Process(1).Program().(*slm.Worker)
	if w.StepsDone+1 < stepsAt {
		t.Fatalf("resume lost work: %d vs %d", w.StepsDone, stepsAt)
	}
	if !cl.RunUntil(func() bool { return job.State() == StateCompleted }, 10*cruz.Second) {
		t.Fatalf("job never completed after resume (steps=%d, fault=%q)", w.StepsDone, w.Fault)
	}
	if w2 := cl.Pod("wx-0").Process(1); w2 != nil {
		t.Fatal("completed job left processes")
	}
}

func TestRecoverFromCrash(t *testing.T) {
	cl := newCluster(t, 2)
	s := New(cl)
	job, err := s.Submit(slmSpec("wx", 2, 300, 100*cruz.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(450 * cruz.Millisecond)
	if job.Checkpoints == 0 {
		t.Fatal("no checkpoint before crash")
	}
	// Crash the pods.
	cl.Pod("wx-0").Destroy()
	cl.Pod("wx-1").Destroy()
	if err := job.RecoverFromCrash(); err != nil {
		t.Fatal(err)
	}
	if !cl.RunUntil(func() bool { return job.State() == StateCompleted }, 20*cruz.Second) {
		w := cl.Pod("wx-0").Process(1)
		detail := "gone"
		if w != nil {
			detail = w.Program().(*slm.Worker).Fault
		}
		t.Fatalf("job never completed after recovery (%s)", detail)
	}
}

func TestSubmitValidation(t *testing.T) {
	cl := newCluster(t, 2)
	s := New(cl)
	if _, err := s.Submit(JobSpec{Name: "bad"}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := s.Submit(slmSpec("dup", 2, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(slmSpec("dup", 2, 10, 0)); !errors.Is(err, ErrJobExists) {
		t.Fatalf("duplicate submit = %v", err)
	}
	if s.Job("dup") == nil || s.Job("ghost") != nil {
		t.Fatal("job lookup broken")
	}
}

func TestSuspendRequiresRunning(t *testing.T) {
	cl := newCluster(t, 2)
	s := New(cl)
	job, _ := s.Submit(slmSpec("wx", 2, 10, 0))
	cl.RunUntil(func() bool { return job.State() == StateCompleted }, 10*cruz.Second)
	if err := job.Suspend(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("suspend completed job = %v", err)
	}
}

// TestFailedSuspendKeepsCheckpointing: a suspend whose checkpoint fails
// leaves the job running, and its periodic checkpoints go on. Found by a
// walk over the mixed scenario (seed 31, step 4): a job suspended while
// its ring connects is resumed with a connection still to make, and a
// second suspend finds it in SYN_SENT, which no checkpoint can capture.
func TestFailedSuspendKeepsCheckpointing(t *testing.T) {
	cl := newCluster(t, 2)
	s := New(cl)
	job, err := s.Submit(slmSpec("wx", 2, 0, 100*cruz.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * cruz.Millisecond)
	if err := job.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := job.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := job.Suspend(); err == nil {
		t.Fatal("a suspend mid-handshake succeeded: the setup no longer reaches the failure")
	}
	if job.State() != StateRunning {
		t.Fatalf("state after a failed suspend = %v", job.State())
	}
	// The ring's SYN was dropped while its neighbour restarted, so the
	// periodic checkpoints fail too until its retransmission ≈ 1 s later.
	before := job.Checkpoints
	cl.Run(1500 * cruz.Millisecond)
	if job.Checkpoints < before+3 {
		t.Fatalf("%d periodic checkpoints in 1.5s after a failed suspend, want ≥ 3", job.Checkpoints-before)
	}
}
