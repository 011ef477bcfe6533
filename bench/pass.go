package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"cruz"
	"cruz/internal/apps/slm"
	"cruz/internal/core"
)

func init() { cruz.RegisterProgram(&slm.Worker{}) }

// Counters every layer already exports, summed over the cluster. A pass
// snapshots them around its measured section; the harness adds nothing
// to the program to get them.
const (
	cEvents = iota // sim.Engine.Fired
	cFrames        // ether: Σ NIC TxFrames
	cWireBytes
	cFlooded
	cDropped
	cSvcBytes // service-node NIC Tx+Rx bytes: the coordinator hosts no app
	cSegments // tcpip: Σ IPSent
	cFilterDrops
	cSegHits
	cSegMisses
	cDiskWritten // kernel
	cDiskRead
	cDiskOps
	cCowFaults
	cSyscalls
	cNewChunks // ckpt store
	cDupChunks
	cNewChunkBytes
	cFreedBytes
	cCompactions
	cReplBytes // core agents
	cECShardBytes
	cReplFailures
	cAborts
	nCounters
)

type counters [nCounters]uint64

func (a counters) sub(b counters) (d counters) {
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

func snapshot(cl *cruz.Cluster) (c counters) {
	c[cEvents] = cl.Engine.Fired()
	c[cFlooded] = cl.Switch.Stats.Flooded
	svc := cl.Service.NIC.Stats
	c[cSvcBytes] = svc.TxBytes + svc.RxBytes
	for _, n := range append([]*cruz.Node{cl.Service}, cl.Nodes...) {
		c[cFrames] += n.NIC.Stats.TxFrames
		c[cWireBytes] += n.NIC.Stats.TxBytes
		c[cDropped] += n.NIC.Stats.Dropped
		st := n.Kernel.Stack()
		c[cSegments] += st.Stats.IPSent
		c[cFilterDrops] += st.Filter().Stats.InputDropped + st.Filter().Stats.OutputDropped
		c[cSegHits] += st.Stats.SegPoolHits
		c[cSegMisses] += st.Stats.SegPoolMisses
		d := n.Kernel.Disk().Stats
		c[cDiskWritten] += d.BytesWritten
		c[cDiskRead] += d.BytesRead
		c[cDiskOps] += d.Ops
		c[cCowFaults] += n.Kernel.Stats.CowFaults
		c[cSyscalls] += n.Kernel.Stats.Syscalls
		ss := n.Store.Stats()
		c[cNewChunks] += uint64(ss.NewChunks)
		c[cDupChunks] += uint64(ss.DupChunks)
		c[cNewChunkBytes] += uint64(ss.NewChunkBytes)
		c[cFreedBytes] += uint64(ss.FreedBytes)
		c[cCompactions] += uint64(ss.Compactions)
		if n.Agent != nil {
			as := n.Agent.Stats
			c[cReplBytes] += uint64(as.ReplBytes)
			c[cECShardBytes] += uint64(as.ECShardBytes)
			c[cReplFailures] += as.ReplFailures + as.ECFailures
			c[cAborts] += as.Aborts
		}
	}
	return c
}

// Harness span kinds. The first four are calls into the cruz facade; the
// rest is virtual time in which only the application and Cruz's
// background work (heartbeats, replication, shard fan-out) run.
const (
	spCheckpoint = "checkpoint"
	spRestart    = "restart"
	spRecover    = "recover"
	spMigrate    = "migrate"
	spRun        = "run"    // the gap after a checkpoint
	spSettle     = "settle" // waiting for durability to be registered
	spVerify     = "verify" // every rank advancing after a disruptive op
)

func idleSpan(kind string) bool { return kind == spRun || kind == spSettle || kind == spVerify }

// span is one harness-side interval around a call into the program:
// host time relative to the start of the measured section, the virtual
// time it covered, and what crossed the coordinator's NIC meanwhile.
type span struct {
	Kind       string
	Start, End time.Duration
	VStart     cruz.Time
	VEnd       cruz.Time
	SvcBytes   uint64
	Alloc      uint64 // bytes allocated inside the span (layer replay only)
}

// passResult is everything one pass observed.
type passResult struct {
	setup time.Duration // cruz.New → every rank past runInSteps

	host      time.Duration // measured section
	mallocs   uint64
	allocated uint64
	liveHeap  uint64

	// steps and stepsVirt are rank 0's progress over the periodic
	// section (first checkpoint issued → end of the last gap) and the
	// virtual time that took: the application's rate under checkpointing.
	steps     int
	stepsVirt cruz.Duration
	counters  counters
	spans     []span

	ckpts      []*cruz.CheckpointResult
	dirty      []int    // Σ pods' dirty pages just before each checkpoint
	hashes     []uint64 // fresh page hashes computed during each checkpoint
	restart    *cruz.RestartResult
	recovery   *cruz.RecoveryResult
	migrations []*cruz.MigrationResult

	attempted int
}

// pass drives one deployment's life on a fresh cluster.
type pass struct {
	w     *workload
	in    inputs
	cl    *cruz.Cluster
	job   *cruz.Job
	names []string
	// watched is when DefineJob put the job under the failure detector:
	// heartbeats tick every core.DefaultHeartbeatEvery from here.
	watched cruz.Time
	t0      time.Time
	res     passResult
}

// runInSteps is how many steps every rank completes before a deployment
// counts as set up: the ring is connected, TCP is out of slow start, and
// set-up is long enough (50 ms, not 20) that its median is not at the
// mercy of where one garbage collection falls.
const runInSteps = 20

// deploy builds the cluster, spawns the slm ring one pod per node, and
// runs until every rank has completed runInSteps steps.
func deploy(w *workload, in inputs, cfg cruz.Config) (*pass, error) {
	start := time.Now()
	cfg.Nodes, cfg.Seed = w.nodes, 1
	cfg.Spares, cfg.AutoRecover = 1, true
	cfg.Replicas, cfg.EC, cfg.AutoCompact = w.replicas, w.ec, w.autoCompact
	cl, err := cruz.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &pass{w: w, in: in, cl: cl}
	ips := make([]cruz.Addr, w.nodes)
	for i := 0; i < w.nodes; i++ {
		name := fmt.Sprintf("slm-%d", i)
		pod, err := cl.NewPod(i, name)
		if err != nil {
			return nil, err
		}
		p.names = append(p.names, name)
		ips[i] = pod.IP()
	}
	scfg := slm.Config{
		Workers:           w.nodes,
		StepOverhead:      w.step,
		HaloBytes:         w.haloBytes,
		GridBytes:         w.gridBytes,
		DirtyPagesPerStep: w.dirtyPages,
		Port:              9200,
		UniquePages:       true,
	}
	for i, name := range p.names {
		if _, err := cl.Pod(name).Spawn("slm", slm.NewWorker(scfg, i, ips[(i+1)%w.nodes])); err != nil {
			return nil, err
		}
	}
	if p.job, err = cl.DefineJob("slm", p.names...); err != nil {
		return nil, err
	}
	p.watched = cl.Engine.Now()
	started := cl.RunUntil(func() bool {
		for _, name := range p.names {
			if wk := p.worker(name); wk == nil || wk.StepsDone < runInSteps {
				return false
			}
		}
		return true
	}, 60*cruz.Second)
	if !started {
		return nil, errors.New("slm ring never started")
	}
	p.res.setup = time.Since(start)
	p.t0 = time.Now()
	return p, nil
}

// worker returns the current incarnation of a pod's slm rank.
func (p *pass) worker(name string) *slm.Worker {
	pod := p.cl.Pod(name)
	if pod == nil || pod.Process(1) == nil {
		return nil
	}
	wk, _ := pod.Process(1).Program().(*slm.Worker)
	return wk
}

// span runs fn as one harness span of the given kind.
func (p *pass) span(kind string, fn func() error) error {
	s := span{Kind: kind, Start: time.Since(p.t0), VStart: p.cl.Engine.Now()}
	svc := p.cl.Service.NIC.Stats
	err := fn()
	now := p.cl.Service.NIC.Stats
	s.End, s.VEnd = time.Since(p.t0), p.cl.Engine.Now()
	s.SvcBytes = now.TxBytes + now.RxBytes - svc.TxBytes - svc.RxBytes
	p.res.spans = append(p.res.spans, s)
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}

// idle lets the application run for d with no operation in flight.
func (p *pass) idle(d cruz.Duration) {
	_ = p.span(spRun, func() error { p.cl.Run(d); return nil }) // span only passes on fn's error, and this fn has none
}

// progress returns every rank's completed steps, or an error if a rank
// is gone or has detected a lost, duplicated or reordered halo byte.
func (p *pass) progress() ([]int, error) {
	steps := make([]int, len(p.names))
	for i, name := range p.names {
		wk := p.worker(name)
		if wk == nil {
			return nil, fmt.Errorf("pod %s has no slm process", name)
		}
		if wk.Fault != "" {
			return nil, fmt.Errorf("pod %s fault %q", name, wk.Fault)
		}
		steps[i] = wk.StepsDone
	}
	return steps, nil
}

// op runs one operation a user would issue. It first lets the
// application run to in.phase past rank 0's next step boundary, so that
// what the operation pays for stopping a pod mid-step is an input and
// not an accident of everything that ran before; afterwards it requires
// every rank to advance two more steps with no fault: slm checks the
// sequence stamp of every halo byte, so a byte lost, duplicated or
// reordered across the operation stops the ring or sets Fault.
func (p *pass) op(kind string, fn func() error) error {
	phase := p.in.phases[p.res.attempted]
	p.res.attempted++
	err := p.span(spRun, func() error {
		slice := p.w.step / 100
		wk := p.worker(p.names[0])
		for base, waited := wk.StepsDone, cruz.Duration(0); wk.StepsDone == base; waited += slice {
			if waited > 100*p.w.step {
				return fmt.Errorf("before %s: ring stuck", kind)
			}
			p.cl.Run(slice)
		}
		p.cl.Run(phase)
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.span(kind, fn); err != nil {
		return err
	}
	return p.span(spVerify, func() error {
		base, err := p.progress()
		advanced := err == nil && p.cl.RunUntil(func() bool {
			var now []int
			if now, err = p.progress(); err != nil {
				return true
			}
			for i := range now {
				if now[i] < base[i]+2 {
					return false
				}
			}
			return true
		}, 10*cruz.Second)
		if err != nil {
			return fmt.Errorf("after %s: %w", kind, err)
		}
		if !advanced {
			return fmt.Errorf("after %s: ring stuck", kind)
		}
		return nil
	})
}

func (p *pass) checkpoint(opts cruz.CheckpointOptions) error {
	dirty := 0
	hashed := p.hashComputes()
	for _, name := range p.names {
		dirty += p.cl.Pod(name).DirtyPages()
	}
	return p.op(spCheckpoint, func() error {
		res, err := p.cl.Checkpoint(p.job, opts)
		if err != nil {
			return err
		}
		p.res.ckpts = append(p.res.ckpts, res)
		p.res.dirty = append(p.res.dirty, dirty)
		p.res.hashes = append(p.res.hashes, p.hashComputes()-hashed)
		return nil
	})
}

// hashComputes sums the fresh page hashes computed so far through the
// pods' current address spaces.
func (p *pass) hashComputes() (n uint64) {
	for _, name := range p.names {
		if pod := p.cl.Pod(name); pod != nil && pod.Process(1) != nil {
			n += pod.Process(1).Mem().HashComputes()
		}
	}
	return n
}

// durable reports whether the coordinator has registered the full
// durability placement of checkpoint seq for every pod.
func (p *pass) durable(seq int) bool {
	for _, name := range p.names {
		if p.w.ec.Enabled() {
			if p.cl.Coordinator.KnownECShards(name, seq) < p.w.ec.M+p.w.ec.R {
				return false
			}
		} else if p.cl.Coordinator.KnownHolders(name, seq) < p.w.replicas+1 {
			return false
		}
	}
	return true
}

// periodic issues the pass's K periodic checkpoints, the application
// running for w.gap after each.
func (p *pass) periodic() error {
	for k := 0; k < p.w.ckpts; k++ {
		opts := p.w.steady
		if k == 0 {
			opts = p.w.first()
		}
		if err := p.checkpoint(opts); err != nil {
			return err
		}
		p.idle(p.w.gap)
	}
	return nil
}

// run is the measured section: K periodic checkpoints, settle, restart,
// node failure and recovery, migrate out and back, final checkpoint.
func (p *pass) run() error {
	w, cl := p.w, p.cl

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := snapshot(cl)
	steps0 := p.worker(p.names[0]).StepsDone
	v0 := cl.Engine.Now()
	p.t0 = time.Now()
	defer func() {
		p.res.host = time.Since(p.t0)
		runtime.ReadMemStats(&after)
		p.res.mallocs = after.Mallocs - before.Mallocs
		p.res.allocated = after.TotalAlloc - before.TotalAlloc
		p.res.counters = snapshot(cl).sub(c0)
	}()

	if err := p.periodic(); err != nil {
		return err
	}
	p.res.steps = p.worker(p.names[0]).StepsDone - steps0
	p.res.stepsVirt = cl.Engine.Now().Sub(v0)

	err := p.span(spSettle, func() error {
		seq := p.res.ckpts[len(p.res.ckpts)-1].Seq
		if !cl.RunUntil(func() bool { return p.durable(seq) }, 60*cruz.Second) {
			return fmt.Errorf("checkpoint %d never became durable", seq)
		}
		return nil
	})
	if err != nil {
		return err
	}

	err = p.op(spRestart, func() error {
		res, err := cl.Restart(p.job, 0)
		p.res.restart = res
		return err
	})
	if err != nil {
		return err
	}

	// Fail the node midway between two heartbeats. Detection happens at
	// a heartbeat tick, so a failure injected near one adds a whole
	// period to the pass or not, by accident of everything before it.
	const hb = core.DefaultHeartbeatEvery
	p.idle((hb/2 - cl.Engine.Now().Sub(p.watched)%hb + hb) % hb)
	err = p.op(spRecover, func() error {
		cl.FailNode(1)
		if !cl.AwaitRecovery(1, 60*cruz.Second) {
			return errors.New("recovery never completed")
		}
		if err := cl.RecoveryErr(); err != nil {
			return err
		}
		p.res.recovery = cl.Recoveries()[0]
		return nil
	})
	if err != nil {
		return err
	}

	for _, target := range []int{0, 2} {
		err = p.op(spMigrate, func() error {
			res, err := cl.Migrate(p.job, "slm-2", target, w.migrate)
			if err == nil {
				p.res.migrations = append(p.res.migrations, res)
			}
			return err
		})
		if err != nil {
			return err
		}
	}

	return p.checkpoint(w.first())
}

// runPass is one complete pass: deploy, measured section, live heap.
// The returned pass (never nil) still references its cluster: the traced
// pass reads the trace and replays layers on it; the caller drops it.
func runPass(w *workload, in inputs, cfg cruz.Config) (*pass, error) {
	p, err := deploy(w, in, cfg)
	if err != nil {
		return &pass{}, fmt.Errorf("deploy: %w", err)
	}
	err = p.run()
	// Live heap with the cluster still referenced: what one deployment
	// keeps resident, after the garbage of driving it is collected.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.res.liveHeap = ms.HeapAlloc
	return p, err
}
