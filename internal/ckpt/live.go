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
//   - Release once the round's image is durably written (or on abort),
//     so writes stop faulting.
//   - Redirty(pod, Image) on abort, after Release: the round cleared
//     dirty tracking when it captured, so the pages it held must be
//     re-marked dirty or the next capture would silently miss them.
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
// Its pages are held as Capture holds them (captureMemory).
// Dirty tracking is cleared once the whole pod is captured, so the next
// round saves exactly the pages written after this one.
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
	for _, as := range lc.spaces {
		as.ClearDirty()
	}
	trace.FromEngine(kern.Engine()).Instant(kern.Name(), "ckpt", "capture-live",
		trace.Str("pod", pod.Name()),
		trace.Int("seq", int64(seq)),
		trace.Int("procs", int64(len(img.Processes))),
		trace.Int("mem_bytes", img.MemoryBytes()))
	return lc, nil
}

// Pages returns the total number of pages the round captured (a round
// image holds nothing else).
func (lc *LiveCapture) Pages() int { return int(lc.Image.MemoryBytes() / mem.PageSize) }

// Release unprotects the address spaces the capture protected, so live
// writes stop faulting; a second call does nothing. The Image is
// unaffected: the arrays it froze stay frozen until a write copies them.
func (lc *LiveCapture) Release() {
	for _, as := range lc.spaces {
		as.Unprotect()
	}
	lc.spaces = nil
}

// Redirty re-marks every page img captured dirty in the live address
// space of pod's process it came from. An aborted epoch calls it for each
// image it discards, a pre-copy round's or a residual's: the capture
// cleared those pages' dirty bits and their only saved copy is going
// away, so the next capture must treat them as unsaved again. A process
// that has exited since has nothing to re-mark.
func Redirty(pod *zap.Pod, img *Image) {
	for i := range img.Processes {
		pi := &img.Processes[i]
		if proc := pod.Process(pi.VPID); proc != nil {
			for _, pn := range pi.Memory.PageNums {
				proc.Mem().MarkDirty(pn)
			}
		}
	}
}
