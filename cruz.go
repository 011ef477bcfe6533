// Package cruz is the public API of the Cruz reproduction: a simulated
// cluster on which distributed applications run inside Zap pods and are
// checkpointed, restarted, and migrated by the Cruz coordinated protocol
// (Janakiraman, Santos, Subhraveti, Turner — DSN 2005).
//
// A Cluster bundles the discrete-event engine, the Ethernet fabric, one
// simulated node (kernel + TCP/IP stack + checkpoint agent + image store)
// per machine, a service node hosting the Checkpoint Coordinator, and
// helpers that drive the event loop until asynchronous operations finish.
//
// Quick start:
//
//	cl, _ := cruz.New(cruz.Config{Nodes: 4})
//	pod, _ := cl.NewPod(0, "db")
//	pod.Spawn("server", myProgram) // any kernel.Program
//	job := cl.DefineJob("myjob", "db")
//	res, _ := cl.Checkpoint(job, cruz.CheckpointOptions{})
//
// See internal/scenario for complete deployments (cmd/cruzsim runs them)
// and DESIGN.md for the mapping from the paper's systems and experiments
// to packages in this repository.
package cruz

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"cruz/internal/ckpt"
	"cruz/internal/core"
	"cruz/internal/ether"
	"cruz/internal/flush"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// Re-exported types: the facade keeps user code to one import for the
// common workflow.
type (
	// Job names a distributed application managed as a unit.
	Job = core.Job
	// Member binds one pod to the agent managing it.
	Member = core.Member
	// CheckpointOptions selects the protocol variant.
	CheckpointOptions = core.CheckpointOptions
	// PrecopyConfig enables pre-copy rounds (CheckpointOptions.Precopy):
	// the image streams while the pod runs; only the residual dirty set
	// is saved under SIGSTOP.
	PrecopyConfig = core.PrecopyConfig
	// CheckpointResult reports a coordinated checkpoint's measurements.
	CheckpointResult = core.CheckpointResult
	// RestartResult reports a coordinated restart's measurements.
	RestartResult = core.RestartResult
	// RecoveryResult reports one automatic recovery with its MTTR split
	// into detect/place/transfer/restart phases.
	RecoveryResult = core.RecoveryResult
	// RecoveredPod describes where one failed pod was re-homed.
	RecoveredPod = core.RecoveredPod
	// MigrateOptions tunes one live migration (pre-copy rounds, dedup,
	// pipelined saves).
	MigrateOptions = core.MigrateOptions
	// MigrationResult reports one live migration: rounds, convergence
	// curve, bytes streamed, and the freeze-to-resume downtime.
	MigrationResult = core.MigrationResult
	// Pod is a Zap PrOcess Domain.
	Pod = zap.Pod
	// Program is the state-machine interface application code implements.
	Program = kernel.Program
	// Duration and Time are virtual-time units.
	Duration = sim.Duration
	// Time is a point in virtual time.
	Time = sim.Time
	// Addr is an IPv4 address on the simulated network.
	Addr = tcpip.Addr
	// AddrPort is an address-port endpoint.
	AddrPort = tcpip.AddrPort
	// ECParams selects Reed-Solomon erasure coding for checkpoint
	// durability: M data + R parity shards per stripe (see Config.EC).
	ECParams = ckpt.ECParams
)

// Common virtual durations, re-exported for callers of Run.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// RegisterProgram must be called for every concrete Program type that
// will be checkpointed (usually from an init function). It panics if an
// interface-typed field is reachable from the type's exported state.
func RegisterProgram(p Program) { ckpt.RegisterProgram(p) }

// Config describes the cluster to build. The hardware, link and daemon
// costs are not in it: they are the paper's testbed, pinned as constants
// in the packages that charge them (DESIGN §5).
type Config struct {
	// Nodes is the number of application machines (a service machine for
	// the coordinator is added automatically).
	Nodes int
	// Seed drives all simulation randomness; runs are reproducible per
	// seed. Zero means 1.
	Seed int64
	// GroupSize enables hierarchical (two-level tree) coordination: the
	// coordinator partitions each job into groups of this size and talks
	// to one deterministic leader per group, which relays to its members
	// and batches their replies — O(N/GroupSize) root messages per
	// protocol phase instead of O(N). 0 or 1 keeps the flat fan-out. A
	// good value is ⌈√N⌉ for N-pod jobs; commit/abort decisions are
	// identical either way.
	GroupSize int
	// AutoCompact, when > 0, makes every node's store fold a pod's
	// incremental manifest chain into a synthetic full manifest (freeing
	// unreferenced chunks) once the chain exceeds this many deduplicated
	// checkpoints. Only affects Dedup checkpoints.
	AutoCompact int
	// Replicas is the default number of peer nodes each committed
	// checkpoint image is streamed to (CheckpointOptions.Replicas
	// overrides per call). With at least one replica, a failed node's
	// pods can restart elsewhere.
	Replicas int
	// EC switches checkpoint durability from whole-image replication to
	// Reed-Solomon erasure coding: each dedup checkpoint's chunks are
	// striped into groups of EC.M data shards, EC.R parity shards are
	// computed, and each of the first M+R ring peers stores one shard per
	// stripe (rotated placement) — the image survives any R node losses
	// for (M+R)/M× storage instead of (1+R)×. Requires Dedup checkpoints
	// and at least M+R peers; otherwise the agent falls back to R-way
	// replication. Recovery reconstructs from any M live holders when no
	// full copy survives. Zero value disables EC.
	EC ECParams
	// AutoRecover puts every job defined with DefineJob under the
	// coordinator's heartbeat/lease failure detector: a detected node
	// failure automatically restarts affected jobs from the newest
	// checkpoint with surviving replicas. Results arrive via
	// Recoveries / AwaitRecovery. It puts every job defined with
	// DefineFlushJob under the flushing coordinator's own lease too: a
	// detected death fails the job's checkpoint with core.ErrNodeFailed
	// and resumes the survivors.
	AutoRecover bool
	// Spares adds this many standby nodes that host no pods but are
	// registered with the coordinator as recovery targets. They follow
	// the application nodes in Cluster.Nodes.
	Spares int
	// Trace keeps every event of the deterministic tracing subsystem
	// (internal/trace) — spans, instants, and counters from every layer —
	// for export as a timeline or Chrome trace JSON via Cluster.Trace().
	// Off by default. Off is not free: every cluster has a tracer, its
	// trace points run and their events go to the always-on flight
	// recorder's bounded per-node rings (Cluster.FlightRecorder()); Trace
	// adds the main ring and samples the engine.
	Trace bool
	// TraceCapacity bounds the main event ring (0 = trace.DefaultCapacity).
	TraceCapacity int
}

// Node is one simulated machine.
type Node struct {
	Index  int
	Spare  bool // standby recovery target, hosts no pods initially
	Kernel *kernel.Kernel
	NIC    *ether.NIC
	Agent  *core.Agent
	Store  *ckpt.Store

	flushAgent *flush.Agent // started by the first DefineFlushJob
	failed     bool         // FailNode took it down
}

// Addr returns the node's physical IP address.
func (n *Node) Addr() Addr { return nodeAddr(n.Index) }

// nodeAddr maps a node index to its physical IP. The first 255 nodes
// keep the historical 10.0.0.x addresses (so small-cluster traces stay
// byte-identical); larger clusters spill into 10.0.(200+k).x, well clear
// of the pod subnets at 10.0.(1+k).x.
func nodeAddr(i int) Addr {
	n := i + 1
	if n <= 255 {
		return Addr{10, 0, 0, byte(n)}
	}
	return Addr{10, 0, byte(200 + n>>8), byte(n)}
}

// nodeMAC maps a node index to its NIC MAC, widening into the fifth
// byte (zero for the first 255 nodes, preserving historical addresses).
func nodeMAC(i int) ether.MAC {
	n := i + 1
	return ether.MAC{0x02, 0, 0, 0, byte(n >> 8), byte(n)}
}

// podNet maps a pod id (1-based creation order) to its externally
// routable IP and VIF MAC. The first 255 pods keep the historical
// 10.0.1.x addresses; later pods spill into 10.0.(1+k).x.
func podNet(id int) (Addr, ether.MAC) {
	return Addr{10, 0, byte(1 + id>>8), byte(id)},
		ether.MAC{0x02, 0, 0, 1, byte(id >> 8), byte(id)}
}

// Cluster is a complete simulated deployment.
type Cluster struct {
	Engine      *sim.Engine
	Switch      *ether.Switch
	Nodes       []*Node
	Service     *Node // hosts the coordinator (and any native daemons)
	Coordinator *core.Coordinator

	flushCoord   *flush.Coordinator // started by the first DefineFlushJob
	cfg          Config
	tracer       *trace.Tracer
	pods         map[string]podRef
	podCount     int
	nodeByAddr   map[AddrPort]*Node
	recoveries   []*RecoveryResult
	recoveryErrs []error
}

// Trace returns the cluster's tracer, or nil when Config.Trace was false.
// The nil tracer is safe to pass around; use internal/trace exporters on
// its Events() to render timelines or Chrome trace JSON.
func (cl *Cluster) Trace() *trace.Tracer {
	if !cl.cfg.Trace {
		return nil
	}
	return cl.tracer
}

// FlightRecorder returns the cluster's tracer (never nil), which holds
// the always-on flight recorder whether or not Config.Trace was set.
// Faults — op aborts, lease expiries, recovery starts — snapshot the
// recent event window; read the dumps with FlightDumps on the returned
// tracer.
func (cl *Cluster) FlightRecorder() *trace.Tracer { return cl.tracer }

type podRef struct {
	pod  *zap.Pod
	node *Node
}

// ErrUnknownPod is returned when a job references a pod the cluster never
// created.
var ErrUnknownPod = errors.New("cruz: unknown pod")

// New builds a cluster per cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.EC.Enabled() {
		if err := cfg.EC.Validate(); err != nil {
			return nil, err
		}
	}
	cl := &Cluster{
		Engine:     sim.NewEngine(cfg.Seed),
		cfg:        cfg,
		pods:       make(map[string]podRef),
		nodeByAddr: make(map[AddrPort]*Node),
	}
	// Attach before any component is built: constructors snapshot the
	// engine's trace sink. Untraced, the tracer keeps only the flight
	// recorder's rings, so faults still yield a pre-trigger window.
	ring := 0
	if cfg.Trace {
		ring = cfg.TraceCapacity
		if ring <= 0 {
			ring = trace.DefaultCapacity
		}
	}
	cl.tracer = trace.New(cl.Engine, ring)
	cl.Switch = ether.NewSwitch(cl.Engine)

	mkNode := func(i int) (*Node, error) {
		mac := nodeMAC(i)
		nic := ether.NewNIC(cl.Engine, fmt.Sprintf("node%d/eth0", i), mac)
		cl.Switch.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(cl.Engine, fmt.Sprintf("node%d", i))
		if _, err := st.AddInterface("eth0", nodeAddr(i), mac, nic, false); err != nil {
			return nil, err
		}
		k := kernel.New(cl.Engine, fmt.Sprintf("node%d", i), st)
		store := ckpt.NewStore(k.Disk())
		store.SetAutoCompact(cfg.AutoCompact)
		return &Node{Index: i, Kernel: k, NIC: nic, Store: store}, nil
	}

	for i := 0; i < cfg.Nodes+cfg.Spares; i++ {
		n, err := mkNode(i)
		if err != nil {
			return nil, err
		}
		n.Spare = i >= cfg.Nodes
		agent, err := core.NewAgent(n.Kernel, n.Store)
		if err != nil {
			return nil, err
		}
		if cfg.EC.Enabled() {
			agent.SetEC(cfg.EC)
		}
		n.Agent = agent
		cl.Nodes = append(cl.Nodes, n)
		cl.nodeByAddr[agent.Addr()] = n
	}
	// Replication ring over every agent node (spares included): node i
	// pushes to i+1, i+2, ... — so k replicas survive any k node losses.
	total := len(cl.Nodes)
	for i, n := range cl.Nodes {
		peers := make([]AddrPort, 0, total-1)
		for j := 1; j < total; j++ {
			peers = append(peers, cl.Nodes[(i+j)%total].Agent.Addr())
		}
		n.Agent.SetPeers(peers)
	}
	svc, err := mkNode(cfg.Nodes + cfg.Spares)
	if err != nil {
		return nil, err
	}
	cl.Service = svc
	cl.Coordinator = core.NewCoordinator(svc.Kernel.Stack())
	cl.Coordinator.SetGroupSize(cfg.GroupSize)
	for _, n := range cl.Nodes {
		cl.Coordinator.RegisterNode(n.Kernel.Name(), n.Agent.Addr())
	}
	return cl, nil
}

// Run advances virtual time by d.
func (cl *Cluster) Run(d Duration) {
	// RunFor only errors when Stop is called, which the facade never does.
	_ = cl.Engine.RunFor(d)
}

// RunUntil advances time in small slices until cond holds or max time
// elapses, reporting whether cond held.
func (cl *Cluster) RunUntil(cond func() bool, max Duration) bool {
	const slice = 5 * sim.Millisecond
	for waited := Duration(0); waited < max; waited += slice {
		if cond() {
			return true
		}
		cl.Run(slice)
	}
	return cond()
}

// NewPod creates a pod on node with an automatically assigned externally
// routable IP (10.0.1.x) and VIF MAC, and registers it with the node's
// agent.
func (cl *Cluster) NewPod(node int, name string) (*Pod, error) {
	if node < 0 || node >= len(cl.Nodes) {
		return nil, fmt.Errorf("cruz: no node %d", node)
	}
	if _, dup := cl.pods[name]; dup {
		return nil, fmt.Errorf("cruz: pod %q already exists", name)
	}
	cl.podCount++
	ip, mac := podNet(cl.podCount)
	n := cl.Nodes[node]
	pod, err := zap.New(n.Kernel, name, zap.NetConfig{IP: ip, MAC: mac})
	if err != nil {
		return nil, err
	}
	n.Agent.Manage(pod)
	cl.pods[name] = podRef{pod: pod, node: n}
	return pod, nil
}

// Pod returns a pod by name (its current incarnation after any restart).
func (cl *Cluster) Pod(name string) *Pod {
	if ref, ok := cl.pods[name]; ok {
		if cur := ref.node.Agent.Pod(name); cur != nil {
			return cur
		}
		return ref.pod
	}
	return nil
}

// PodNode returns the node currently responsible for a pod.
func (cl *Cluster) PodNode(name string) *Node {
	if ref, ok := cl.pods[name]; ok {
		return ref.node
	}
	return nil
}

// DefineJob builds a Job from pod names and connects the coordinator to
// the agents involved.
func (cl *Cluster) DefineJob(name string, podNames ...string) (*Job, error) {
	job := &Job{Name: name}
	for _, pn := range podNames {
		ref, ok := cl.pods[pn]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownPod, pn)
		}
		job.Members = append(job.Members, Member{Pod: pn, Agent: ref.node.Agent.Addr()})
	}
	if err := cl.connect("coordinator", func(done func(error)) { cl.Coordinator.Connect(job, done) }); err != nil {
		return nil, err
	}
	if cl.cfg.AutoRecover {
		cl.Coordinator.Watch(job, func(res *RecoveryResult, err error) {
			// A pod moved by an attempt that a later failure overtook is in no
			// result's list, so the membership is what says where pods live.
			cl.rehome(job)
			if err != nil {
				cl.recoveryErrs = append(cl.recoveryErrs, err)
				return
			}
			cl.recoveries = append(cl.recoveries, res)
		})
	}
	return job, nil
}

// connect starts a coordinator's connect, handing it the callback to
// report with, and drives the event loop until that fires: it returns
// the error reported, or "cruz: <who> connect timed out" after ten
// virtual seconds.
func (cl *Cluster) connect(who string, start func(done func(error))) error {
	var err error
	connected := false
	start(func(e error) { err, connected = e, true })
	if !cl.RunUntil(func() bool { return connected }, 10*Second) {
		return errors.New("cruz: " + who + " connect timed out")
	}
	return err
}

// rehome points the facade's pod bookkeeping at the node the job's
// membership says each pod lives on now.
func (cl *Cluster) rehome(job *Job) {
	for _, m := range job.Members {
		if n, ok := cl.nodeByAddr[m.Agent]; ok {
			ref := cl.pods[m.Pod]
			ref.node = n
			cl.pods[m.Pod] = ref
		}
	}
}

// Recoveries returns every automatic recovery completed so far.
func (cl *Cluster) Recoveries() []*RecoveryResult { return cl.recoveries }

// RecoveryErr returns the first automatic-recovery failure, if any.
func (cl *Cluster) RecoveryErr() error {
	if len(cl.recoveryErrs) > 0 {
		return cl.recoveryErrs[0]
	}
	return nil
}

// AwaitRecovery drives the event loop until n automatic recoveries have
// completed (or one has failed), reporting whether it got there within
// max virtual time.
func (cl *Cluster) AwaitRecovery(n int, max Duration) bool {
	return cl.RunUntil(func() bool {
		return len(cl.recoveries) >= n || len(cl.recoveryErrs) > 0
	}, max)
}

// Checkpoint runs one coordinated checkpoint synchronously (driving the
// event loop until the protocol completes).
func (cl *Cluster) Checkpoint(job *Job, opts CheckpointOptions) (*CheckpointResult, error) {
	if opts.Replicas == 0 {
		opts.Replicas = cl.cfg.Replicas
	}
	return await(cl, "checkpoint", func(done func(*CheckpointResult, error)) {
		cl.Coordinator.Checkpoint(job, opts, done)
	})
}

// Restart runs a coordinated restart from checkpoint seq (0 = latest
// committed) synchronously.
func (cl *Cluster) Restart(job *Job, seq int) (*RestartResult, error) {
	return await(cl, "restart", func(done func(*RestartResult, error)) {
		cl.Coordinator.Restart(job, seq, done)
	})
}

// Migrate moves one pod of the job to the target node live, driving the
// event loop until the migration commits: pre-copy rounds stream into
// the target's store while the pod runs, only the residual dirty set is
// transferred under freeze, and the address (VIF IP + MAC) moves with
// the live TCP state — established connections survive. On success the
// facade's pod bookkeeping re-homes, so Pod/PodNode resolve to the new
// node.
func (cl *Cluster) Migrate(job *Job, podName string, targetNode int, opts MigrateOptions) (*MigrationResult, error) {
	if targetNode < 0 || targetNode >= len(cl.Nodes) {
		return nil, fmt.Errorf("cruz: no node %d", targetNode)
	}
	if _, ok := cl.pods[podName]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPod, podName)
	}
	to := cl.Nodes[targetNode].Agent.Addr()
	res, err := await(cl, "migration", func(done func(*MigrationResult, error)) {
		cl.Coordinator.Migrate(job, podName, to, opts, done)
	})
	if err != nil {
		return nil, err
	}
	cl.rehome(job)
	return res, nil
}

// DefineFlushJob builds the flushing-baseline version of a job, for
// comparison experiments. Its first call starts a CoCheck-style flushing
// agent on every node and the flushing coordinator on the service node;
// each call registers the job's pods, as they are now, with their nodes'
// flushing agents and, under Config.AutoRecover, puts those agents under
// the flushing coordinator's lease.
func (cl *Cluster) DefineFlushJob(name string, podNames ...string) (*flush.Job, error) {
	if cl.flushCoord == nil {
		for _, n := range cl.Nodes {
			fa, err := flush.NewAgent(n.Kernel)
			if err != nil {
				return nil, err
			}
			n.flushAgent = fa
		}
		cl.flushCoord = flush.NewCoordinator(cl.Service.Kernel.Stack())
	}
	job := &flush.Job{Name: name}
	for _, pn := range podNames {
		ref, ok := cl.pods[pn]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownPod, pn)
		}
		pod := cl.Pod(pn)
		ref.node.flushAgent.Manage(pod)
		job.Members = append(job.Members, flush.Member{Pod: pn, PodIP: pod.IP(), Agent: ref.node.flushAgent.Addr()})
	}
	if err := cl.connect("flush coordinator", func(done func(error)) { cl.flushCoord.Connect(job, done) }); err != nil {
		return nil, err
	}
	if cl.cfg.AutoRecover {
		cl.flushCoord.Watch(job)
	}
	return job, nil
}

// FlushCheckpoint runs one flushing-baseline checkpoint synchronously.
func (cl *Cluster) FlushCheckpoint(job *flush.Job) (*flush.Result, error) {
	return await(cl, "flush checkpoint", func(done func(*flush.Result, error)) {
		cl.flushCoord.Checkpoint(job, done)
	})
}

// await starts an asynchronous op, handing it the callback to complete
// with, and drives the event loop until that fires — or fails with
// "cruz: <what> timed out" after ten virtual minutes.
func await[R any](cl *Cluster, what string, start func(done func(R, error))) (R, error) {
	var res R
	var err error
	fired := false
	start(func(r R, e error) { res, err, fired = r, e, true })
	if !cl.RunUntil(func() bool { return fired }, 10*60*Second) {
		return res, errors.New("cruz: " + what + " timed out")
	}
	return res, err
}

// FailNode simulates a machine failure: its link goes down and every
// process on it is killed. With Config.Replicas ≥ 1 and AutoRecover, the
// coordinator detects the failure and restarts affected jobs on
// surviving nodes automatically.
func (cl *Cluster) FailNode(i int) {
	n := cl.Nodes[i]
	n.failed = true
	cl.Switch.SetLinkDown(n.NIC, true)
	for _, p := range n.Kernel.Processes() {
		n.Kernel.Signal(p.PID(), kernel.SIGKILL)
	}
}

// Check is the end-of-run oracle: it reports every way the cluster is not
// settled and clean. That is an op open on the coordinator, or an op or
// trace span open on any node but a failed one (whose agent died holding
// them) — the flushing baseline's daemons included, once DefineFlushJob
// has started them — or a Fault reported by a program of a pod the
// cluster created, in its current incarnation, whether its process still
// runs or exited on its own, or a chunk in a live node's store whose
// bytes no longer hash to its key. It reads state only and never
// advances the engine; nil means nothing is wrong.
func (cl *Cluster) Check() error {
	var errs []error
	if k := cl.Coordinator.OpenOps(); k != 0 {
		errs = append(errs, fmt.Errorf("coordinator has %d open ops", k))
	}
	if cl.flushCoord != nil {
		if k := cl.flushCoord.OpenOps(); k != 0 {
			errs = append(errs, fmt.Errorf("flush coordinator has %d open ops", k))
		}
	}
	var failed []string
	for _, n := range cl.Nodes {
		if n.failed {
			failed = append(failed, n.Kernel.Name())
			continue
		}
		if k := n.Agent.OpenOps(); k != 0 {
			errs = append(errs, fmt.Errorf("%s agent has %d open ops", n.Kernel.Name(), k))
		}
		if n.flushAgent != nil {
			if k := n.flushAgent.OpenOps(); k != 0 {
				errs = append(errs, fmt.Errorf("%s flush agent has %d open ops", n.Kernel.Name(), k))
			}
		}
		if err := ckpt.CheckChunks(n.Store); err != nil {
			errs = append(errs, fmt.Errorf("%s store: %w", n.Kernel.Name(), err))
		}
	}
	if spans := cl.tracer.OpenSpanNames(failed...); len(spans) != 0 {
		errs = append(errs, fmt.Errorf("%d trace spans still open %v", len(spans), spans))
	}
	names := make([]string, 0, len(cl.pods))
	for name := range cl.pods {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		pod := cl.Pod(name)
		for vpid := 1; vpid < pod.NextVPID(); vpid++ {
			if prog := reflect.Indirect(reflect.ValueOf(pod.Program(vpid))); prog.Kind() == reflect.Struct {
				if f := prog.FieldByName("Fault"); f.Kind() == reflect.String && f.String() != "" {
					errs = append(errs, fmt.Errorf("pod %s/%d fault: %s", name, vpid, f.String()))
				}
			}
		}
	}
	return errors.Join(errs...)
}
