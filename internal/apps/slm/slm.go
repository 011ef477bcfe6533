// Package slm models the paper's "semi-Lagrangian atmospheric model"
// benchmark (§6): a parallel iterative weather-prediction kernel with a
// 1-D latitude-band decomposition. Each worker holds a grid partition in
// memory; every model step it computes over its partition, then exchanges
// halo bands with both ring neighbours over TCP, in lockstep.
//
// The workload's two tunable regimes reproduce the paper's run times —
// total work that scales down with workers (545 s on 2 nodes → 205 s on
// 8) plus a fixed per-step overhead — and its checkpoint profile: the
// grid dominates the image, so local checkpoint time is disk-write-bound
// at roughly one second for the calibrated 100 MB pod image.
package slm

import (
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// Config parameterizes one slm job.
type Config struct {
	// Workers is the number of ring workers (one per node in the paper).
	Workers int
	// Steps is the number of model steps to run (0 = run forever).
	Steps int
	// TotalComputePerStep is the whole-model CPU work per step; each
	// worker performs 1/Workers of it.
	TotalComputePerStep sim.Duration
	// StepOverhead is the fixed, non-scaling per-worker cost per step
	// (synchronization, fixed-size boundary work).
	StepOverhead sim.Duration
	// HaloBytes is the boundary-band size exchanged with each neighbour
	// each step.
	HaloBytes int
	// GridBytes is each worker's partition size; it dominates the
	// checkpoint image.
	GridBytes uint64
	// DirtyPagesPerStep is how many grid pages each step rewrites
	// (bounds incremental-checkpoint size).
	DirtyPagesPerStep int
	// Port is the halo-exchange TCP port.
	Port uint16
	// Linger keeps the rank alive (idle) after its last step instead of
	// exiting, so tests can inspect the end-state memory of a finite run
	// (an exited process's address space is reaped).
	Linger bool
	// UniquePages salts every grid page with the rank so page content is
	// distinct across (rank, page, step). The default fill (pn^rank)
	// yields the same page SET in every rank — fine for latency
	// experiments, but it lets content-addressed dedup collapse one
	// pod's image against another's, which degenerates storage-tier
	// byte measurements.
	UniquePages bool
}

// DefaultConfig matches the calibration in DESIGN.md §5: run time scales
// from ≈545 s at 2 workers to ≈205 s at 8, and each pod checkpoints
// ≈100 MB.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:             workers,
		Steps:               1000,
		TotalComputePerStep: 907 * sim.Millisecond,
		StepOverhead:        91 * sim.Millisecond,
		HaloBytes:           64 << 10,
		GridBytes:           100 << 20,
		DirtyPagesPerStep:   256,
		Port:                9200,
	}
}

// ExpectedRuntime returns the model's predicted execution time, used by
// tests to validate the scaling calibration.
func (c Config) ExpectedRuntime() sim.Duration {
	perStep := c.TotalComputePerStep/sim.Duration(c.Workers) + c.StepOverhead
	return sim.Duration(c.Steps) * perStep
}

// Worker phases.
const (
	phaseInit = iota
	phaseListen
	phaseConnect
	phaseEstablish
	phaseAccept
	phaseCompute
	phaseSendHalos
	phaseRecvHalos
	phaseDone
)

// Worker is one slm rank. It is a checkpointable program: all state is
// exported and the grid lives in the simulated address space.
type Worker struct {
	Cfg     Config
	Rank    int
	RightIP tcpip.Addr // neighbour we dial
	// Phase machine state.
	Phase int
	LFD   int
	OutFD int // to right neighbour
	InFD  int // from left neighbour
	Grid  uint64

	// Step progress.
	StepsDone int
	// Halo exchange bookkeeping. RecvRight and RecvLeft are received into
	// in place and emptied by reslicing, so one array each serves every
	// step; gob writes only their length, as it would of exact copies.
	SentRight, SentLeft int
	RecvRight, RecvLeft []byte
	// Fault records a detected inconsistency (lost/duplicated halo).
	Fault string

	// StartedAt/FinishedAt bound the run for throughput accounting.
	StartedAt  sim.Time
	FinishedAt sim.Time

	// band is the outgoing halo (see halo). Unexported, so no checkpoint
	// carries it: a restored worker rebuilds it on its first send.
	band []byte
}

// NewWorker builds rank r of an n-worker ring. Ring wiring: worker i
// dials worker (i+1) mod n and accepts from worker (i-1) mod n.
func NewWorker(cfg Config, rank int, rightIP tcpip.Addr) *Worker {
	return &Worker{Cfg: cfg, Rank: rank, RightIP: rightIP}
}

// Done reports whether the worker completed all steps.
func (w *Worker) Done() bool { return w.Phase == phaseDone }

func (w *Worker) fail(msg string) kernel.StepResult {
	w.Fault = msg
	return kernel.Exit(0, 2)
}

// perStepCompute is this worker's share of a step's work.
func (w *Worker) perStepCompute() sim.Duration {
	return w.Cfg.TotalComputePerStep/sim.Duration(w.Cfg.Workers) + w.Cfg.StepOverhead
}

// halo returns the outgoing halo band for the current step: every byte
// carries the step stamp so the receiver can detect corruption. The band
// is kept and refilled only when the stamp changes (Send copies what it
// accepts, so nothing else ever holds it).
func (w *Worker) halo() []byte {
	stamp := byte(w.StepsDone + 1)
	if len(w.band) != w.Cfg.HaloBytes {
		w.band = make([]byte, w.Cfg.HaloBytes)
	} else if w.band[0] == stamp {
		return w.band
	}
	for i := range w.band {
		w.band[i] = stamp
	}
	return w.band
}

// recvHalo receives the rest of one neighbour's halo from fd straight into
// the spare capacity of *band, growing it to HaloBytes first if it is
// short (a new or a restored worker).
func (w *Worker) recvHalo(ctx *kernel.ProcContext, fd int, band *[]byte, side string) kernel.StepResult {
	b := *band
	if cap(b) < w.Cfg.HaloBytes {
		b = append(make([]byte, 0, w.Cfg.HaloBytes), b...)
		*band = b
	}
	n, err := ctx.Recv(fd, b[len(b):w.Cfg.HaloBytes], false)
	if err == kernel.ErrWouldBlock {
		return kernel.BlockOnRead(0, fd)
	}
	if err != nil {
		return w.fail("recv " + side + ": " + err.Error())
	}
	*band = b[:len(b)+n]
	return kernel.Continue(0)
}

// Step implements kernel.Program.
func (w *Worker) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch w.Phase {
	case phaseInit:
		base, err := ctx.Mem().Alloc(w.Cfg.GridBytes, "grid")
		if err != nil {
			return w.fail("grid alloc: " + err.Error())
		}
		w.Grid = base
		// Materialize the partition (demand-zero pages don't checkpoint;
		// a real model initializes its whole field).
		pages := w.Cfg.GridBytes / mem.PageSize
		for pn := uint64(0); pn < pages; pn++ {
			val := pn ^ uint64(w.Rank)
			if w.Cfg.UniquePages {
				val = pn*0x9E3779B97F4A7C15 + uint64(w.Rank)
			}
			if err := ctx.Mem().WriteUint64(base+pn*mem.PageSize, val); err != nil {
				return w.fail("grid init: " + err.Error())
			}
		}
		w.Phase = phaseListen
		return kernel.Continue(10 * sim.Millisecond) // model setup cost
	case phaseListen:
		fd, err := ctx.Listen(tcpip.AddrPort{Port: w.Cfg.Port}, 4)
		if err != nil {
			return w.fail("listen: " + err.Error())
		}
		w.LFD = fd
		w.Phase = phaseConnect
		return kernel.Sleep(0, 20*sim.Millisecond)
	case phaseConnect:
		fd, err := ctx.Connect(tcpip.AddrPort{Addr: w.RightIP, Port: w.Cfg.Port})
		if err != nil {
			return w.fail("connect: " + err.Error())
		}
		w.OutFD = fd
		w.Phase = phaseEstablish
		return kernel.Continue(0)
	case phaseEstablish:
		ok, err := ctx.ConnEstablished(w.OutFD)
		if err != nil {
			return w.fail("establish: " + err.Error())
		}
		if !ok {
			return kernel.Sleep(0, sim.Millisecond)
		}
		w.Phase = phaseAccept
		return kernel.Continue(0)
	case phaseAccept:
		fd, err := ctx.Accept(w.LFD)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, w.LFD)
		}
		if err != nil {
			return w.fail("accept: " + err.Error())
		}
		w.InFD = fd
		w.Phase = phaseCompute
		// StartedAt marks the start of the stepped computation; setup
		// (grid init, listen barrier, handshakes) is excluded from the
		// runtime model.
		w.StartedAt = ctx.Now()
		return kernel.Continue(0)

	case phaseCompute:
		if w.Cfg.Steps > 0 && w.StepsDone >= w.Cfg.Steps {
			w.FinishedAt = ctx.Now()
			w.Phase = phaseDone
			if w.Cfg.Linger {
				return kernel.Sleep(0, sim.Second)
			}
			return kernel.Exit(0, 0)
		}
		// Advance the model: touch a rotating set of grid pages.
		pages := w.Cfg.GridBytes / mem.PageSize
		for i := 0; i < w.Cfg.DirtyPagesPerStep; i++ {
			pn := (uint64(w.StepsDone)*uint64(w.Cfg.DirtyPagesPerStep) + uint64(i)) % pages
			val := uint64(w.StepsDone)
			if w.Cfg.UniquePages {
				val = (uint64(w.StepsDone)+1)*0x9E3779B97F4A7C15 + uint64(w.Rank)<<32 + pn
			}
			if err := ctx.Mem().WriteUint64(w.Grid+pn*mem.PageSize, val); err != nil {
				return w.fail("grid update: " + err.Error())
			}
		}
		w.Phase = phaseSendHalos
		return kernel.Continue(w.perStepCompute())

	case phaseSendHalos:
		// Send to the right neighbour over the dialed connection and to
		// the left neighbour over the accepted one (TCP is full duplex).
		if w.SentRight < w.Cfg.HaloBytes {
			n, err := ctx.Send(w.OutFD, w.halo()[w.SentRight:])
			if err == kernel.ErrWouldBlock {
				return kernel.BlockOnWrite(0, w.OutFD)
			}
			if err != nil {
				return w.fail("send right: " + err.Error())
			}
			w.SentRight += n
			return kernel.Continue(0)
		}
		if w.SentLeft < w.Cfg.HaloBytes {
			n, err := ctx.Send(w.InFD, w.halo()[w.SentLeft:])
			if err == kernel.ErrWouldBlock {
				return kernel.BlockOnWrite(0, w.InFD)
			}
			if err != nil {
				return w.fail("send left: " + err.Error())
			}
			w.SentLeft += n
			return kernel.Continue(0)
		}
		w.Phase = phaseRecvHalos
		return kernel.Continue(0)

	case phaseRecvHalos:
		if len(w.RecvLeft) < w.Cfg.HaloBytes {
			return w.recvHalo(ctx, w.InFD, &w.RecvLeft, "left")
		}
		if len(w.RecvRight) < w.Cfg.HaloBytes {
			return w.recvHalo(ctx, w.OutFD, &w.RecvRight, "right")
		}
		// Both halos in: verify the step stamps.
		stamp := byte(w.StepsDone + 1)
		for _, b := range w.RecvLeft {
			if b != stamp {
				return w.fail("left halo stamp mismatch")
			}
		}
		for _, b := range w.RecvRight {
			if b != stamp {
				return w.fail("right halo stamp mismatch")
			}
		}
		w.RecvLeft, w.RecvRight = w.RecvLeft[:0], w.RecvRight[:0]
		w.SentRight, w.SentLeft = 0, 0
		w.StepsDone++
		w.Phase = phaseCompute
		return kernel.Continue(0)

	case phaseDone:
		// Lingering rank: finished, parked.
		return kernel.Sleep(0, sim.Second)
	}
	return w.fail("bad phase")
}
