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
	// Incremental saves only memory pages dirtied since the previous
	// capture (kernel state is always saved in full — it is tiny).
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
	// chunk's bytes instead of being copied. Without Hashes it is unused.
	Store *Store
}

// Capture copies a stopped pod's complete state into an Image. The copy
// is atomic in virtual time (the simulation's equivalent of holding the
// network-stack locks for the duration of the socket-state save) and
// non-destructive: the pod can be resumed immediately afterwards. Each
// page is copied at most once (see detach).
//
// Every capture clears the pod's dirty-page tracking, so a later
// Incremental capture saves exactly the pages written since this one.
func Capture(pod *zap.Pod, seq int, opts Options) (*Image, error) {
	if !pod.Stopped() {
		return nil, ErrPodNotStopped
	}
	kern := pod.Kernel()
	img := newImage(pod, seq, opts)

	// Pipes are shared objects; assign stable ids as we encounter them.
	pipeIDs := make(map[*kernel.Pipe]int)

	// Dirty tracking is cleared only after the whole pod captures
	// successfully: clearing per process inside the loop would, on a
	// later process's failure, lose the earlier processes' dirty sets
	// and silently corrupt the next incremental capture.
	spaces := make([]*mem.AddressSpace, 0, len(pod.VPIDs()))
	for _, vpid := range pod.VPIDs() {
		proc := pod.Process(vpid)
		pi, err := captureProcess(vpid, proc, opts, pipeIDs, img)
		if err != nil {
			return nil, fmt.Errorf("ckpt: pod %s vpid %d: %w", pod.Name(), vpid, err)
		}
		img.Processes = append(img.Processes, pi)
		spaces = append(spaces, proc.Mem())
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
	if err := detach(img, opts); err != nil {
		return nil, err
	}
	for _, as := range spaces {
		as.ClearDirty()
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
// address space, or the snapshot of a running one — with their hashes if
// opts asks for them; hashes that had to be computed count into
// img.FreshHashes. The references last only until the capture detaches.
func captureMemory(space *mem.AddressSpace, pns []uint64, opts Options, img *Image) (MemImage, error) {
	m := MemImage{Regions: space.Regions(), PageNums: pns, pages: make([]*[mem.PageSize]byte, len(pns))}
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
	return m, nil
}

// detach ends a capture's references to the address spaces its pages
// were read from, copying each page at most once. An unhashed capture
// encodes, copying every page into the blob PlanSave will register. A
// hashed one points each page whose hash opts.Store already holds at that
// chunk and copies every other page into one slab, joined in one
// allocation that is not zero-filled, so the page bytes a deduplicated
// save will find resident are not copied at all; Encode builds the same
// blob on demand.
func detach(img *Image, opts Options) error {
	if !opts.Hashes {
		_, err := img.Encode()
		return err
	}
	held := func(mem.PageHash) []byte { return nil }
	if opts.Store != nil {
		held = opts.Store.chunkData
	}
	pages := 0
	for i := range img.Processes {
		pages += img.Processes[i].Memory.NumPages()
	}
	st := stage(pages)
	defer encStages.Put(st)
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		for j, h := range m.PageHashes {
			if len(held(h)) != mem.PageSize {
				st.parts = append(st.parts, m.pages[j][:])
			}
		}
	}
	slab := st.join()
	for i := range img.Processes {
		m := &img.Processes[i].Memory
		for j, h := range m.PageHashes {
			if d := held(h); len(d) == mem.PageSize {
				m.pages[j] = (*[mem.PageSize]byte)(d)
				continue
			}
			m.pages[j], slab = (*[mem.PageSize]byte)(slab), slab[mem.PageSize:]
		}
	}
	return nil
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
