package ckpt

import (
	"fmt"

	"cruz/internal/mem"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// LiveCapture is one pre-copy round's worth of memory, captured from a
// RUNNING pod (§5.2's copy-on-write checkpointing). The image holds the
// page contents as of the capture instant, as Capture holds them; the
// capture write-protects each process's address space until Release, so
// the first application write to each page in the meantime takes a
// fault — the kernel's fault hook charges that as the runtime cost of
// checkpointing concurrently with execution.
//
// The caller owns the capture's lifecycle:
//
//   - Keep(pod, Image) once its store registers the round, so the next
//     round saves only the pages written since this one.
//   - Release once the round's image is durably written (or on abort),
//     so writes stop faulting.
//   - Rewind(pod, Image) on abort, if it is the epoch's first kept image,
//     so the pages the discarded rounds held are dirty again.
type LiveCapture struct {
	Image  *Image
	spaces []*mem.AddressSpace // protected until Release
}

// CaptureLive captures a round image from a running pod. The copy is
// atomic in virtual time (the capture and the write protection are one
// event; no application write can interleave), and — unlike Capture —
// does not require the pod to be stopped.
//
// Round images are memory-only: kernel state (program values, file
// descriptors, signals, IPC) is deliberately absent, because Merge and
// mergeManifests take kernel state wholly from the newest image in a
// chain and the chain is always topped by a residual captured under
// Capture with the pod stopped. A round image is therefore not
// restorable by itself; it only exists as a link in a pre-copy chain.
//
// Its pages are held as Capture holds them (captureMemory), and like
// Capture it moves no dirty base.
func CaptureLive(pod *zap.Pod, seq int, opts Options) (*LiveCapture, error) {
	kern := pod.Kernel()
	img := newImage(pod, seq, opts)
	lc := &LiveCapture{Image: img}
	var err error
	for _, vpid := range pod.VPIDs() {
		proc := pod.Process(vpid)
		as := proc.Mem()
		as.Protect()
		lc.spaces = append(lc.spaces, as)
		pi := ProcImage{VPID: vpid, Name: proc.Name()}
		if pi.Memory, err = captureMemory(as, as.PageNumbers(opts.Incremental), opts, img); err != nil {
			break
		}
		img.Processes = append(img.Processes, pi)
	}
	if err != nil {
		lc.Release()
		return nil, fmt.Errorf("ckpt: live capture of pod %s: %w", pod.Name(), err)
	}
	trace.FromEngine(kern.Engine()).Instant(kern.Name(), "ckpt", "capture-live",
		trace.Str("pod", pod.Name()),
		trace.Int("seq", int64(seq)),
		trace.Int("procs", int64(len(img.Processes))),
		trace.Int("mem_bytes", img.MemoryBytes()))
	return lc, nil
}

// Release unprotects the address spaces the capture protected, so live
// writes stop faulting; a second call does nothing. The Image is
// unaffected: the arrays it froze stay frozen until a write copies them.
func (lc *LiveCapture) Release() {
	for _, as := range lc.spaces {
		as.Unprotect()
	}
	lc.spaces = nil
}

// Keep records that pod's store registered img: each process img saved
// then counts dirty only what it wrote since the capture. A capture never
// kept — a failed op's, the flushing baseline's — moves nothing.
func Keep(pod *zap.Pod, img *Image) {
	for _, pi := range img.Processes {
		if proc := pod.Process(pi.VPID); proc != nil {
			proc.Mem().Keep(pi.Memory.gen)
		}
	}
}

// Rewind discards an aborted epoch whose first kept image is img: each of
// pod's processes gets back the dirty base it had at img's capture, and
// one born since then none, so all the epoch saved is dirty again.
func Rewind(pod *zap.Pod, img *Image) {
	kept := make(map[int]uint64, len(img.Processes))
	for _, pi := range img.Processes {
		kept[pi.VPID] = pi.Memory.kept
	}
	for _, vpid := range pod.VPIDs() {
		pod.Process(vpid).Mem().Keep(kept[vpid])
	}
}
