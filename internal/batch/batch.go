// Package batch is a miniature cluster job scheduler in the spirit of
// LSF, which the paper integrated Cruz with ("We have implemented Cruz on
// a cluster of Linux 2.4 systems and integrated it with LSF", §6). It
// places a parallel job's tasks into pods across nodes, wires the ring of
// pod addresses into the application, and drives periodic coordinated
// checkpoints; jobs can be suspended to their last checkpoint and resumed
// later — the resource-management use case from the paper's introduction.
package batch

import (
	"errors"
	"fmt"

	"cruz"
	"cruz/internal/sim"
)

// Errors returned by the scheduler.
var (
	ErrJobExists  = errors.New("batch: job already exists")
	ErrNoSuchJob  = errors.New("batch: no such job")
	ErrNotRunning = errors.New("batch: job is not running")
)

// TaskFactory builds the program for one rank of a job. podIPs lists the
// pod addresses of all ranks, in rank order, so tasks can find each other
// (Cruz preserves these addresses across checkpoint-restart, which is
// exactly why no location service is needed after a restart).
type TaskFactory func(rank, n int, podIPs []cruz.Addr) cruz.Program

// JobSpec describes a parallel job.
type JobSpec struct {
	Name  string
	Tasks int
	Make  TaskFactory
	// CheckpointEvery enables periodic coordinated checkpoints (0 = off).
	// The paper's slm runs used an 8-second interval.
	CheckpointEvery cruz.Duration
	// Optimized selects the Fig. 4 protocol for periodic checkpoints.
	Optimized bool
	// Incremental makes periodic checkpoints after the first incremental.
	Incremental bool
}

// JobState is a scheduler job's lifecycle state.
type JobState int

// Job states.
const (
	StateRunning JobState = iota + 1
	StateSuspended
	StateCompleted
)

// Job is a scheduled parallel job.
type Job struct {
	Spec         JobSpec
	Core         *cruz.Job
	PodIPs       []cruz.Addr
	pods         []string
	sched        *Scheduler
	state        JobState
	ticker       *sim.Ticker
	ckptInFlight bool

	// Checkpoints counts committed periodic checkpoints; LastResult is
	// the most recent one.
	Checkpoints int
	LastResult  *cruz.CheckpointResult
	// CheckpointErrs counts failed periodic attempts.
	CheckpointErrs int
}

// Scheduler places jobs on a cluster.
type Scheduler struct {
	cluster       *cruz.Cluster
	jobs          map[string]*Job
	nextPlacement int
}

// New creates a scheduler for the cluster.
func New(cluster *cruz.Cluster) *Scheduler {
	return &Scheduler{cluster: cluster, jobs: make(map[string]*Job)}
}

// Job returns a job by name, or nil.
func (s *Scheduler) Job(name string) *Job { return s.jobs[name] }

// Submit places and starts a job: one pod per task, round-robin across
// nodes, then spawns each rank's program with the full address list.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if _, dup := s.jobs[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrJobExists, spec.Name)
	}
	if spec.Tasks <= 0 || spec.Make == nil {
		return nil, fmt.Errorf("batch: invalid spec for %q", spec.Name)
	}
	j := &Job{Spec: spec, sched: s, state: StateRunning}

	// Create all pods first so every rank can learn every address.
	var pods []*cruz.Pod
	for i := 0; i < spec.Tasks; i++ {
		name := fmt.Sprintf("%s-%d", spec.Name, i)
		node := s.nextPlacement % len(s.cluster.Nodes)
		s.nextPlacement++
		pod, err := s.cluster.NewPod(node, name)
		if err != nil {
			return nil, fmt.Errorf("batch: place %s: %w", name, err)
		}
		pods = append(pods, pod)
		j.pods = append(j.pods, name)
		j.PodIPs = append(j.PodIPs, pod.IP())
	}
	for i, pod := range pods {
		if _, err := pod.Spawn(fmt.Sprintf("rank%d", i), spec.Make(i, spec.Tasks, j.PodIPs)); err != nil {
			return nil, fmt.Errorf("batch: spawn rank %d: %w", i, err)
		}
	}
	coreJob, err := s.cluster.DefineJob(spec.Name, j.pods...)
	if err != nil {
		return nil, err
	}
	j.Core = coreJob
	s.jobs[spec.Name] = j
	j.arm()
	return j, nil
}

// arm starts the periodic checkpoints, if the job has them.
func (j *Job) arm() {
	if j.Spec.CheckpointEvery > 0 {
		j.ticker = j.sched.cluster.Engine.NewTicker(j.Spec.CheckpointEvery, j.periodicCheckpoint)
	}
}

// periodicCheckpoint fires from the scheduler's timer inside the event
// loop, so it uses the asynchronous coordinator API.
func (j *Job) periodicCheckpoint() {
	if j.state != StateRunning || j.ckptInFlight || j.Done() {
		return
	}
	opts := cruz.CheckpointOptions{
		Optimized:   j.Spec.Optimized,
		Incremental: j.Spec.Incremental && j.Checkpoints > 0,
	}
	j.ckptInFlight = true
	j.sched.cluster.Coordinator.Checkpoint(j.Core, opts, func(res *cruz.CheckpointResult, err error) {
		j.ckptInFlight = false
		if err != nil {
			j.CheckpointErrs++
			return
		}
		j.Checkpoints++
		j.LastResult = res
	})
}

// State returns the job's lifecycle state, detecting completion.
func (j *Job) State() JobState {
	if j.state == StateRunning && j.Done() {
		j.state = StateCompleted
		if j.ticker != nil {
			j.ticker.Stop()
		}
	}
	return j.state
}

// Done reports whether every task process has exited.
func (j *Job) Done() bool {
	for _, name := range j.pods {
		pod := j.sched.cluster.Pod(name)
		if pod == nil {
			return false
		}
		if len(pod.VPIDs()) > 0 {
			return false
		}
	}
	return true
}

// drainCheckpoint stops the periodic ticker and waits out any in-flight
// coordinated checkpoint, so lifecycle operations never collide with the
// coordinator's one-op-per-job rule. Whatever leaves the job running
// afterwards re-arms the ticker.
func (j *Job) drainCheckpoint() error {
	if j.ticker != nil {
		j.ticker.Stop()
		j.ticker = nil
	}
	if !j.sched.cluster.RunUntil(func() bool { return !j.ckptInFlight }, 10*60*cruz.Second) {
		return fmt.Errorf("batch: %s: in-flight checkpoint never finished", j.Spec.Name)
	}
	return nil
}

// Suspend checkpoints the job and releases its compute: the pods are
// destroyed after a final coordinated checkpoint. The paper's
// introduction calls this out for "resource management in emerging
// Utility Computing and Grid environments".
func (j *Job) Suspend() error {
	if j.state != StateRunning {
		return fmt.Errorf("%w: %s", ErrNotRunning, j.Spec.Name)
	}
	if err := j.drainCheckpoint(); err != nil {
		return err
	}
	res, err := j.sched.cluster.Checkpoint(j.Core, cruz.CheckpointOptions{})
	if err != nil {
		// The coordinator aborted and resumed the pods: the job runs on.
		j.arm()
		return fmt.Errorf("batch: suspend checkpoint: %w", err)
	}
	j.Checkpoints++
	j.LastResult = res
	for _, name := range j.pods {
		if pod := j.sched.cluster.Pod(name); pod != nil {
			pod.Destroy()
		}
	}
	j.state = StateSuspended
	return nil
}

// Resume restarts a suspended job from its last checkpoint.
func (j *Job) Resume() error {
	if j.state != StateSuspended {
		return fmt.Errorf("batch: %s is not suspended", j.Spec.Name)
	}
	if _, err := j.sched.cluster.Restart(j.Core, 0); err != nil {
		return fmt.Errorf("batch: resume: %w", err)
	}
	j.state = StateRunning
	j.arm()
	return nil
}

// RecoverFromCrash restarts the job from its last committed checkpoint
// after its pods were lost (e.g. the processes were killed). Unlike
// Resume it does not require a prior Suspend.
func (j *Job) RecoverFromCrash() error {
	if err := j.drainCheckpoint(); err != nil {
		return err
	}
	for _, name := range j.pods {
		if pod := j.sched.cluster.Pod(name); pod != nil && !pod.Destroyed() {
			pod.Destroy()
		}
	}
	if _, err := j.sched.cluster.Restart(j.Core, 0); err != nil {
		return fmt.Errorf("batch: recover: %w", err)
	}
	j.state = StateRunning
	j.arm()
	return nil
}
