// Package scenario is the one table of runnable scenarios: the paper's §6
// applications (slm, a kvstore service, the TCP stream, an LSF-style
// batch job) deployed on a simulated cluster and driven by op scripts
// kept as data. cmd/cruzsim runs a row; go test runs them all.
package scenario

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"

	"cruz"
	"cruz/internal/apps/kvstore"
	"cruz/internal/apps/slm"
	"cruz/internal/apps/stream"
	"cruz/internal/batch"
)

// Row is one scenario: a deployment, an op script, and fragments of the
// output, at the row's own nodes and seed, that pin what it shows.
type Row struct {
	Name, Doc string
	Deploy    Deployment
	Steps     []Step
	Want      []string
}

// Op is what a step does, to Job, or to the first job deployed.
type Op int

// The step vocabulary.
const (
	Run        Op = iota // run For
	Checkpoint           // checkpoint Job with Ckpt; if replicated, until its images are on every holder
	Restart              // destroy every pod of Job, restart it from its newest checkpoint
	Fail                 // fail Node; if a pod lived there, await the recovery
	Migrate              // move Pod to Node with Mig
	Suspend              // checkpoint batch Job and destroy its pods
	Resume               // restart suspended batch Job
)

// Step is one op of a script. A negative Node counts back from the last
// application node.
type Step struct {
	Op       Op
	For      cruz.Duration
	Job, Pod string
	Node     int
	Ckpt     cruz.CheckpointOptions
	Mig      cruz.MigrateOptions
}

func (s Step) String() string {
	switch s.Op {
	case Run:
		return fmt.Sprintf("run %v", s.For)
	case Fail:
		return fmt.Sprintf("fail node %d", s.Node)
	case Migrate:
		return fmt.Sprintf("migrate %s to node %d", s.Pod, s.Node)
	}
	return [...]string{Checkpoint: "checkpoint", Restart: "restart", Suspend: "suspend", Resume: "resume"}[s.Op] + " " + s.Job
}

type job struct {
	name    string
	pods    []string
	core    *cruz.Job
	batch   *batch.Job
	crashes int // restarts of a batch job: each may fail one periodic checkpoint
}

// slot is a deployed process (native if pod is "") and its program last seen.
type slot struct {
	pod  string
	vpid int
	job  *job
	prog cruz.Program
}

// Run deploys the row with the nonzero Nodes, GroupSize and Seed of over
// in place of its own, and over's Trace; runs its steps, printing a
// stamped line for each; and applies the oracle. The cluster comes back,
// run or not, for its trace and flight recorder.
func (r Row) Run(over cruz.Config, out io.Writer) (*cruz.Cluster, error) {
	d := r.Deploy
	cfg := &d.Config
	if over.Nodes != 0 || over.GroupSize != 0 {
		if d.Ring == nil || d.Ring.Size != 0 {
			return nil, fmt.Errorf("%s does not scale: it takes no nodes or group", r.Name)
		}
		cfg.Nodes, cfg.GroupSize = cmp.Or(over.Nodes, cfg.Nodes), over.GroupSize
		// Wide rings keep the 16-node footprint, so a run takes seconds.
		if ring := *d.Ring; cfg.Nodes > 16 {
			ring.SLM.GridBytes = max(ring.SLM.GridBytes*16/uint64(cfg.Nodes), 256<<10)
			d.Ring = &ring
		}
	}
	cfg.Seed, cfg.Trace = cmp.Or(over.Seed, cfg.Seed), over.Trace
	w, err := Deploy(d)
	if w == nil {
		return nil, err
	}
	cl := w.Cluster
	if err != nil {
		return cl, fmt.Errorf("%s: deploy: %w", r.Name, err)
	}
	for i, s := range r.Steps {
		s.Job = cmp.Or(s.Job, w.jobs[0].name)
		what, err := w.step(s)
		if err != nil {
			return cl, fmt.Errorf("%s: step %d (%v): %w", r.Name, i+1, s, err)
		}
		w.refresh()
		fmt.Fprintf(out, "[%10v] %s | %s\n", cl.Engine.Now(), what, w.progress())
	}
	if err := w.Check(); err != nil {
		return cl, fmt.Errorf("%s: after step %d: %w", r.Name, len(r.Steps), err)
	}
	return cl, nil
}

func (w *World) step(s Step) (string, error) {
	cl := w.Cluster
	if s.Node < 0 {
		s.Node += w.cfg.Nodes
	}
	i := slices.IndexFunc(w.jobs, func(j *job) bool { return j.name == s.Job && s.Pod == "" || slices.Contains(j.pods, s.Pod) })
	if i < 0 {
		return "", fmt.Errorf("no job %q with pod %q", s.Job, s.Pod)
	}
	j := w.jobs[i]
	if j.batch == nil && (s.Op == Suspend || s.Op == Resume) {
		return "", fmt.Errorf("%s is not a batch job", j.name)
	}
	switch s.Op {
	case Run:
		cl.Run(s.For)
	case Fail:
		return w.fail(s.Node)
	case Migrate:
		res, err := cl.Migrate(j.core, s.Pod, s.Node, s.Mig)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v: downtime %v, total %v, rounds %v, %d KB streamed",
			s, res.Downtime, res.Latency, res.RoundPages, res.BytesStreamed>>10), nil
	case Checkpoint:
		res, err := cl.Checkpoint(j.core, s.Ckpt)
		if err != nil {
			return "", err
		}
		what := fmt.Sprintf("%v %d: latency %v, overhead %v, blocked %v, %d msgs, %.2f MB", s, res.Seq,
			res.Latency, res.Overhead, res.MaxBlocked, res.Messages, float64(res.TotalImageBytes)/(1<<20))
		if w.cfg.Replicas > 0 || w.cfg.EC.Enabled() {
			if !w.Durable(j.name, res.Seq, 30*cruz.Second) {
				return "", fmt.Errorf("images not durable in 30s")
			}
			what += "; images on every holder"
		}
		return what, nil
	case Restart:
		res, err := w.Restart(j.name)
		if err != nil || res == nil {
			return s.String(), err
		}
		return fmt.Sprintf("%v from checkpoint %d: latency %v", s, res.Seq, res.Latency), nil
	case Suspend:
		return s.String(), j.batch.Suspend()
	case Resume:
		return s.String(), j.batch.Resume()
	}
	return s.String(), nil
}

// Durable runs until checkpoint seq of job is on every holder of each
// of its pods — Replicas+1 whole copies, or M+R erasure-coded shards — and
// reports whether it got there within limit.
func (w *World) Durable(job string, seq int, limit cruz.Duration) bool {
	cl, ec := w.Cluster, w.cfg.EC
	return cl.RunUntil(func() bool {
		return !slices.ContainsFunc(w.find(job).pods, func(pod string) bool {
			return ec.Enabled() && cl.Coordinator.KnownECShards(pod, seq) < ec.M+ec.R ||
				!ec.Enabled() && cl.Coordinator.KnownHolders(pod, seq) < w.cfg.Replicas+1
		})
	}, limit)
}

// Restart destroys every pod of job and restarts it from its newest
// checkpoint. A batch job recovers through its scheduler, with no result.
func (w *World) Restart(job string) (*cruz.RestartResult, error) {
	j := w.find(job)
	for _, name := range j.pods {
		w.Cluster.Pod(name).Destroy()
	}
	if j.batch != nil {
		j.crashes++
		return nil, j.batch.RecoverFromCrash()
	}
	return w.Cluster.Restart(j.core, 0)
}

// Fail fails node and, if a pod of a job lived there, awaits and returns
// the recovery that re-homes it; else the result is nil.
func (w *World) Fail(node int) (*cruz.RecoveryResult, error) {
	cl := w.Cluster
	hosted := slices.ContainsFunc(w.slots, func(s slot) bool { return s.job != nil && cl.PodNode(s.pod) == cl.Nodes[node] })
	cl.FailNode(node)
	if !hosted {
		return nil, nil
	}
	n := len(cl.Recoveries()) + 1
	if !cl.AwaitRecovery(n, 30*cruz.Second) || cl.RecoveryErr() != nil {
		return nil, cmp.Or(cl.RecoveryErr(), fmt.Errorf("no recovery in 30s"))
	}
	return cl.Recoveries()[n-1], nil
}

func (w *World) fail(node int) (string, error) {
	what := fmt.Sprintf("fail node %d", node)
	rec, err := w.Fail(node)
	if err != nil {
		return "", err
	} else if rec == nil {
		return what + ": no pod there", nil
	}
	what += fmt.Sprintf(": %s recovered from checkpoint %d, MTTR %v = detect %v + place %v + transfer %v (decode %v) + restart %v",
		rec.Job, rec.Seq, rec.MTTR, rec.Detect, rec.Place, rec.Transfer, rec.Reconstruct, rec.Restart)
	for _, p := range rec.Pods {
		how := "local copy"
		if p.Reconstructed {
			how = "reconstructed from shards"
		} else if p.Transferred {
			how = "fetched from " + p.From
		}
		what += fmt.Sprintf("; %s to %s (%s)", p.Pod, p.To, how)
	}
	return what, nil
}

// refresh records the program each live slot runs now.
func (w *World) refresh() {
	for i, s := range w.slots {
		if pod := w.Cluster.Pod(s.pod); s.pod != "" && pod.Process(s.vpid) != nil {
			w.slots[i].prog = pod.Process(s.vpid).Program()
		}
	}
}

// progress says how far each application has got.
func (w *World) progress() string {
	var parts []string
	for _, s := range w.slots {
		switch p := s.prog.(type) {
		case *slm.Worker:
			if b := s.job.batch; p.Rank == 0 && b != nil {
				parts = append(parts, fmt.Sprintf("%s step %d, %d ckpts", s.job.name, p.StepsDone, b.Checkpoints))
			} else if p.Rank == 0 {
				parts = append(parts, fmt.Sprintf("%s step %d", s.job.name, p.StepsDone))
			}
		case *kvstore.Client:
			parts = append(parts, fmt.Sprintf("kv ops %d", p.Done))
		case *stream.Receiver:
			parts = append(parts, fmt.Sprintf("stream %d MB", p.Received>>20))
		case *counter:
			parts = append(parts, fmt.Sprintf("counter %d", p.Count))
		}
	}
	return strings.Join(parts, ", ")
}

// Check is the oracle every run ends with: once work in flight is done,
// the cluster's own Check must pass, and on top of it, what the cluster
// cannot see or forgives. No traced span may stay open, a failed node's
// included; no native program may report a Fault; every process of a live
// pod must run unless its batch job finished; and periodic checkpoints
// may fail only where restarts cut them.
func (w *World) Check() error {
	cl, tr := w.Cluster, w.Cluster.Trace()
	cl.RunUntil(func() bool { return cl.Check() == nil && tr.OpenSpans() == 0 }, 2*cruz.Second)
	if err := cl.Check(); err != nil {
		return err
	}
	if n := tr.OpenSpans(); n != 0 {
		return fmt.Errorf("%d trace spans still open %v", n, tr.OpenSpanNames())
	}
	w.refresh()
	for _, s := range w.slots {
		if f := reflect.ValueOf(s.prog).Elem().FieldByName("Fault"); s.pod == "" && f.IsValid() && f.String() != "" {
			return fmt.Errorf("%s/%d: %s", s.pod, s.vpid, f.String())
		}
		if s.pod != "" && !cl.Pod(s.pod).Destroyed() && cl.Pod(s.pod).Process(s.vpid) == nil &&
			(s.job == nil || s.job.batch == nil || s.job.batch.State() != batch.StateCompleted) {
			return fmt.Errorf("%s/%d exited", s.pod, s.vpid)
		}
		if s.job != nil && s.job.batch != nil && s.job.batch.CheckpointErrs > s.job.crashes {
			return fmt.Errorf("%s: %d periodic checkpoints failed, %d restarts", s.job.name, s.job.batch.CheckpointErrs, s.job.crashes)
		}
	}
	return nil
}
