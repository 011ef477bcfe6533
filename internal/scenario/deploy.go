package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"cruz"
	"cruz/internal/apps/kvstore"
	"cruz/internal/apps/slm"
	"cruz/internal/apps/stream"
	"cruz/internal/batch"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
)

func init() {
	for _, p := range []cruz.Program{&slm.Worker{}, &kvstore.Server{}, &kvstore.Client{}, &stream.Sender{}, &stream.Receiver{}, &counter{}, &hotCache{}} {
		cruz.RegisterProgram(p)
	}
}

// Deployment is a cluster and what runs on it, placed in field order.
// Ring is an slm job, worker i in pod Name-i (or Pods formatted with i) on
// node i, its grid Grid[i] times SLM's where that is nonzero; Every > 0
// has the batch scheduler checkpoint it that often (Fig. 4), and Size 0,
// a worker per application node, lets Run resize the row. KV is a kvstore
// server (and 8 MiB hot cache if Cache) in pod and job "db" on node 0, its
// client in no pod on node Client (-1: the service node). Stream sends, in
// no job, from the last application node to the one before. Counter is a
// pod counting in memory on node 0, job "demo-job".
type Deployment struct {
	Config  cruz.Config
	Ring    *Ring
	KV      *KV
	Stream  bool
	Counter bool
}

// Ring and KV parameterise those deployments.
type (
	Ring struct {
		Name  string
		Size  int
		SLM   slm.Config
		Every cruz.Duration
		Pods  string
		Grid  []uint64
	}
	KV struct {
		Cache  bool
		Client int
	}
)

type proc struct {
	name string
	prog cruz.Program
}

// World is a deployment running on its cluster.
type World struct {
	Cluster *cruz.Cluster
	cfg     cruz.Config
	jobs    []*job
	slots   []slot
}

// Deploy creates d's cluster and deploys d on it. The world comes back
// with any cluster that was created, deployed or not.
func Deploy(d Deployment) (*World, error) {
	cl, err := cruz.New(d.Config)
	if err != nil {
		return nil, err
	}
	w := &World{Cluster: cl, cfg: d.Config}
	return w, w.deploy(d)
}

// Job returns the deployed job named name.
func (w *World) Job(name string) *cruz.Job { return w.find(name).core }

func (w *World) find(name string) *job {
	return w.jobs[slices.IndexFunc(w.jobs, func(j *job) bool { return j.name == name })]
}

// pod creates a pod on node and spawns procs in it, as part of j if any.
func (w *World) pod(j *job, node int, name string, procs ...proc) (*cruz.Pod, error) {
	pod, err := w.Cluster.NewPod(node, name)
	for i := 0; i < len(procs) && err == nil; i++ {
		_, err = pod.Spawn(procs[i].name, procs[i].prog)
		w.slots = append(w.slots, slot{pod: name, vpid: i + 1, job: j})
	}
	return pod, err
}

// define makes j's pods a job, unless a scheduler already has.
func (w *World) define(j *job) (err error) {
	w.jobs = append(w.jobs, j)
	if j.core == nil {
		j.core, err = w.Cluster.DefineJob(j.name, j.pods...)
	}
	return err
}

func (w *World) deploy(d Deployment) error {
	if d.Ring != nil {
		if err := w.ring(*d.Ring); err != nil {
			return err
		}
	}
	if kv := d.KV; kv != nil {
		j, procs := &job{name: "db", pods: []string{"db"}}, []proc{{"kvd", kvstore.NewServer(0)}}
		if kv.Cache {
			procs = append(procs, proc{"cache", &hotCache{Bytes: 8 << 20, PerTick: 4}})
		}
		db, err := w.pod(j, 0, "db", procs...)
		if err == nil {
			err = w.define(j)
		}
		if err != nil {
			return err
		}
		host, client := w.Cluster.Service, kvstore.NewClient(cruz.AddrPort{Addr: db.IP(), Port: kvstore.DefaultPort})
		if kv.Client >= 0 {
			host = w.Cluster.Nodes[kv.Client]
		}
		host.Kernel.Spawn("kvc", client, 0)
		w.slots = append(w.slots, slot{prog: client})
	}
	if d.Stream {
		recv, err := w.pod(nil, w.cfg.Nodes-2, "s-recv", proc{"recv", stream.NewReceiver(0)})
		if err == nil {
			_, err = w.pod(nil, w.cfg.Nodes-1, "s-send", proc{"send", stream.NewSender(cruz.AddrPort{Addr: recv.IP(), Port: stream.DefaultPort})})
		}
		if err != nil {
			return err
		}
	}
	if d.Counter {
		j := &job{name: "demo-job", pods: []string{"demo"}}
		if _, err := w.pod(j, 0, "demo", proc{"counter", &counter{}}); err != nil {
			return err
		}
		return w.define(j)
	}
	return nil
}

// ring deploys an slm ring: worker i dials worker i+1.
func (w *World) ring(r Ring) error {
	n := cmp.Or(r.Size, w.cfg.Nodes)
	if n < 2 {
		return fmt.Errorf("an slm ring needs 2 workers, not %d", n)
	}
	worker := func(rank, n int, ips []cruz.Addr) cruz.Program {
		cfg := r.SLM
		cfg.Workers = n
		if rank < len(r.Grid) && r.Grid[rank] != 0 {
			cfg.GridBytes *= r.Grid[rank]
		}
		return slm.NewWorker(cfg, rank, ips[(rank+1)%n])
	}
	j, ips := &job{name: r.Name}, []cruz.Addr(nil)
	for i := 0; i < n; i++ {
		j.pods = append(j.pods, fmt.Sprintf(cmp.Or(r.Pods, r.Name+"-%d"), i))
		w.slots = append(w.slots, slot{pod: j.pods[i], vpid: 1, job: j})
	}
	if r.Every > 0 {
		b, err := batch.New(w.Cluster).Submit(batch.JobSpec{Name: r.Name, Tasks: n, CheckpointEvery: r.Every, Optimized: true, Make: worker})
		if err != nil {
			return err
		}
		j.batch, j.core = b, b.Core
		return w.define(j)
	}
	for i, name := range j.pods {
		pod, err := w.Cluster.NewPod(i%len(w.Cluster.Nodes), name)
		if err != nil {
			return err
		}
		ips = append(ips, pod.IP())
	}
	for i, name := range j.pods {
		if _, err := w.Cluster.Pod(name).Spawn("slm", worker(i, n, ips)); err != nil {
			return err
		}
	}
	return w.define(j)
}

// counter increments a value in memory forever: ordinary code, unaware
// of checkpoints, whose state is all exported, as a program's must be. It
// keeps the count in its registers too and exits with status 1 when the
// two disagree: a restore whose memory is not from the moment of its
// program state — a page the pod wrote after the capture — stops it.
type counter struct {
	Heap  uint64
	Count uint64
}

func (c *counter) Step(ctx *kernel.ProcContext) kernel.StepResult {
	var err error
	if c.Heap == 0 {
		c.Heap, err = ctx.Mem().Alloc(4096, "heap")
	} else if v, rerr := ctx.Mem().ReadUint64(c.Heap); rerr != nil || v != c.Count {
		return kernel.Exit(0, 1)
	}
	c.Count++
	if err != nil || ctx.Mem().WriteUint64(c.Heap, c.Count) != nil {
		return kernel.Exit(0, 1)
	}
	return kernel.Sleep(10*sim.Microsecond, sim.Millisecond)
}

// hotCache is a service's working set, PerTick of its pages rewritten a
// tick: it makes a migration's pre-copy rounds converge visibly.
type hotCache struct {
	Bytes   uint64
	PerTick int
	Base    uint64
	Ticks   uint64
}

func (h *hotCache) Step(ctx *kernel.ProcContext) kernel.StepResult {
	m, pages := ctx.Mem(), h.Bytes/mem.PageSize
	var err error
	if h.Base == 0 {
		// Materialise the cache: demand-zero pages are not checkpointed.
		h.Base, err = m.Alloc(h.Bytes, "cache")
		for pn := uint64(0); pn < pages && err == nil; pn++ {
			err = m.WriteUint64(h.Base+pn*mem.PageSize, pn)
		}
		if err != nil {
			return kernel.Exit(0, 1)
		}
		return kernel.Continue(5 * sim.Millisecond)
	}
	for i := uint64(0); i < uint64(h.PerTick) && err == nil; i++ {
		err = m.WriteUint64(h.Base+(h.Ticks*uint64(h.PerTick)+i)%pages*mem.PageSize, h.Ticks)
	}
	if err != nil {
		return kernel.Exit(0, 1)
	}
	h.Ticks++
	return kernel.Sleep(100*sim.Microsecond, 2*sim.Millisecond)
}
