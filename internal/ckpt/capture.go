package ckpt

import (
	"errors"
	"fmt"
	"slices"

	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// Errors returned by capture.
var (
	ErrPodNotStopped = errors.New("ckpt: pod must be stopped before capture")
)

// Options controls a capture.
type Options struct {
	// Incremental saves only memory pages dirtied since the capture last
	// kept (Keep; kernel state is always saved in full — it is tiny).
	Incremental bool
	// Hashes records each captured page's content hash in the image,
	// enabling content-addressed (deduplicating) storage. Hashes are
	// cached on clean pages, so only pages written since the last
	// hashing capture cost a recompute (counted in Image.FreshHashes).
	Hashes bool
	// BaseSeq, when non-zero, overrides the sequence an Incremental
	// image declares as its base (the default is seq-1). Pre-copy uses
	// it to chain each round onto the previous round's sequence and the
	// residual onto the last round, so a chain stays well-formed even
	// when sequence numbers are strided or an epoch was aborted.
	BaseSeq int
	// Store, for a Hashes capture, is the store its deduplicated save will
	// plan into: a page whose hash the store already holds references that
	// chunk's bytes instead of the address space's array. Without Hashes
	// it is unused.
	Store *Store
}

// Capture copies a stopped pod's complete state into an Image. The copy
// is atomic in virtual time (the simulation's equivalent of holding the
// network-stack locks for the duration of the socket-state save) and
// non-destructive: the pod can be resumed immediately afterwards. It
// copies no page (see captureMemory).
//
// A capture moves no dirty base: a later Incremental capture saves only
// the pages written since this one once the image is kept (Keep).
func Capture(pod *zap.Pod, seq int, opts Options) (*Image, error) {
	if !pod.Stopped() {
		return nil, ErrPodNotStopped
	}
	kern := pod.Kernel()
	img := newImage(pod, seq, opts)

	// Pipes are shared objects; assign stable ids as we encounter them.
	pipeIDs := make(map[*kernel.Pipe]int)

	for _, vpid := range pod.VPIDs() {
		pi, err := captureProcess(vpid, pod.Process(vpid), opts, pipeIDs, img)
		if err != nil {
			return nil, fmt.Errorf("ckpt: pod %s vpid %d: %w", pod.Name(), vpid, err)
		}
		img.Processes = append(img.Processes, pi)
	}

	for _, id := range pod.ShmIDs() {
		s := kern.Shm(id)
		if s == nil {
			continue
		}
		img.Shms = append(img.Shms, ShmImage{ID: s.ID, Key: s.Key, Size: s.Size, Contents: s.Contents()})
	}
	for _, id := range pod.SemIDs() {
		s := kern.Sem(id)
		if s == nil {
			continue
		}
		img.Sems = append(img.Sems, SemImage{ID: s.ID, Key: s.Key, Value: s.Value()})
	}
	trace.FromEngine(kern.Engine()).Instant(kern.Name(), "ckpt", "capture",
		trace.Str("pod", pod.Name()),
		trace.Int("procs", int64(len(img.Processes))),
		trace.Int("mem_bytes", img.MemoryBytes()),
		trace.Int("shms", int64(len(img.Shms))))
	return img, nil
}

// newImage starts an image of pod at seq: identity, chain position and
// network identity, no processes yet.
func newImage(pod *zap.Pod, seq int, opts Options) *Image {
	img := &Image{
		PodName:     pod.Name(),
		Seq:         seq,
		Incremental: opts.Incremental,
		TakenAt:     pod.Kernel().Engine().Now(),
		NextVPID:    pod.NextVPID(),
		Net: NetImage{
			IP:        pod.IP(),
			MAC:       pod.Config().MAC,
			FakeMAC:   pod.Config().FakeMAC,
			SharedMAC: pod.SharedMAC(),
		},
	}
	if opts.Incremental {
		img.BaseSeq = seq - 1
		if opts.BaseSeq != 0 {
			img.BaseSeq = opts.BaseSeq
		}
	}
	return img
}

// captureMemory references pages pns of space — a stopped process's
// address space, or a running one's under a live capture's protection —
// with their hashes if opts asks for them; hashes that had to be computed
// count into img.FreshHashes. It copies no page: a page whose hash
// opts.Store holds is that chunk's bytes, and every other page is space's
// own array, frozen there, so that the space copies it before its next
// write. It cuts space's generation, for Keep and Rewind.
func captureMemory(space *mem.AddressSpace, pns []uint64, opts Options, img *Image) (MemImage, error) {
	m := MemImage{Regions: space.Regions(), PageNums: pns, pages: make([]*[mem.PageSize]byte, len(pns)),
		kept: space.Kept(), gen: space.Cut()}
	for i, pn := range pns {
		data := space.PageData(pn)
		if data == nil {
			return m, fmt.Errorf("page %d is listed but not materialised", pn)
		}
		m.pages[i] = (*[mem.PageSize]byte)(data)
	}
	if opts.Hashes {
		m.PageHashes = make([]mem.PageHash, len(pns))
		before := space.HashComputes()
		space.PageHashes(pns, m.PageHashes)
		img.FreshHashes += int(space.HashComputes() - before)
	}
	for i, pn := range pns {
		if opts.Hashes && opts.Store != nil {
			if d := opts.Store.chunkData(m.PageHashes[i]); len(d) == mem.PageSize {
				m.pages[i] = (*[mem.PageSize]byte)(d)
				continue
			}
		}
		space.FreezePage(pn)
	}
	return m, nil
}

// captureProcess saves one process: program state, memory, descriptors,
// and pending signals.
func captureProcess(vpid int, proc *kernel.Process, opts Options, pipeIDs map[*kernel.Pipe]int, img *Image) (ProcImage, error) {
	pi := ProcImage{
		VPID:    vpid,
		Name:    proc.Name(),
		Signals: proc.PendingSignals(),
		CPUTime: proc.CPUTime(),
	}

	// "CPU state": the program value, through its type's memoised codec,
	// which writes a fresh gob encoder's bytes without compiling gob's
	// engines anew: one allocation, the encoding.
	var err error
	if pi.ProgData, err = encodeProgram(proc.Program()); err != nil {
		return pi, fmt.Errorf("encode program (did you ckpt.RegisterProgram it?): %w", err)
	}

	// Virtual memory: regions always, pages full or dirty-only.
	as := proc.Mem()
	if pi.Memory, err = captureMemory(as, as.PageNumbers(opts.Incremental), opts, img); err != nil {
		return pi, err
	}

	// Descriptors, in fd order for determinism.
	fds := proc.FDs()
	nums := make([]int, 0, len(fds))
	for n := range fds {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	for _, n := range nums {
		fd := fds[n]
		fi := FDImage{Num: n, Kind: fd.Kind()}
		switch fd.Kind() {
		case kernel.FDConn:
			st, err := fd.Conn().CaptureState()
			if err != nil {
				return pi, fmt.Errorf("fd %d: %w", n, err)
			}
			fi.Conn = st
		case kernel.FDListener:
			fi.Listener = fd.Listener().CaptureState()
		case kernel.FDUDP:
			u := fd.UDP()
			fi.UDP = &UDPImage{
				Local:     u.LocalAddr(),
				Broadcast: u.Broadcast,
				Queue:     u.PendingMessages(),
			}
		case kernel.FDPipeRead, kernel.FDPipeWrite:
			p := fd.PipeObj()
			id, ok := pipeIDs[p]
			if !ok {
				id = len(pipeIDs) + 1
				pipeIDs[p] = id
				img.Pipes = append(img.Pipes, PipeImage{ID: id, Buffer: p.Buffered()})
			}
			fi.PipeID = id
		}
		pi.FDs = append(pi.FDs, fi)
	}
	return pi, nil
}
