package ckpt

import (
	"fmt"

	"cruz/internal/kernel"
	"cruz/internal/zap"
)

// Restore reconstructs a pod from an image on the given node. The image
// must be self-contained (merge incremental chains with Merge first).
//
// The restored pod is left in the stopped state with communication
// untouched: the caller — normally the Cruz coordination protocol, which
// has communication disabled for the pod's address (§5) — resumes it when
// the global restart commits. Restored TCP connections arm their
// retransmission timers, so any segments transmitted into the disabled
// network recover automatically once communication is re-enabled.
//
// Restore announces the pod's (possibly new) location with a gratuitous
// ARP so the switch and remote peers re-learn the path (§4.2).
func Restore(kern *kernel.Kernel, img *Image) (*zap.Pod, error) {
	if img.Incremental {
		return nil, fmt.Errorf("ckpt: image %s/%d is incremental; Merge it first", img.PodName, img.Seq)
	}
	cfg := zap.NetConfig{IP: img.Net.IP, FakeMAC: img.Net.FakeMAC}
	if !img.Net.SharedMAC {
		cfg.MAC = img.Net.MAC
	}
	pod, err := zap.New(kern, img.PodName, cfg)
	if err != nil {
		return nil, fmt.Errorf("ckpt: restore pod %s: %w", img.PodName, err)
	}
	// From here on, tear the half-built pod down on any failure.
	ok := false
	defer func() {
		if !ok {
			pod.Destroy()
		}
	}()

	pod.SetNextVPID(img.NextVPID)

	// Pipes first: descriptors reference them by id.
	pipes := make(map[int]*kernel.Pipe, len(img.Pipes))
	for _, pi := range img.Pipes {
		p := kernel.NewPipe(kern)
		p.RestoreBuffer(pi.Buffer)
		pipes[pi.ID] = p
	}

	for _, pi := range img.Processes {
		if err := restoreProcess(kern, pod, pi, pipes); err != nil {
			return nil, fmt.Errorf("ckpt: restore %s vpid %d: %w", img.PodName, pi.VPID, err)
		}
	}

	for _, s := range img.Shms {
		if _, err := kern.InstallShm(s.ID, s.Key, s.Size, s.Contents); err != nil {
			return nil, fmt.Errorf("ckpt: restore shm: %w", err)
		}
		pod.TrackShm(s.ID)
	}
	for _, s := range img.Sems {
		if _, err := kern.InstallSem(s.ID, s.Key, s.Value); err != nil {
			return nil, fmt.Errorf("ckpt: restore sem: %w", err)
		}
		pod.TrackSem(s.ID)
	}

	// Park the pod stopped; the coordinated restart resumes it.
	pod.Stop(nil)
	pod.AnnounceLocation()
	ok = true
	return pod, nil
}

// restoreProcess rebuilds one process from its image.
func restoreProcess(kern *kernel.Kernel, pod *zap.Pod, pi ProcImage, pipes map[int]*kernel.Pipe) error {
	prog, err := decodeProgram(pi.ProgData)
	if err != nil {
		return fmt.Errorf("decode program (is its type RegisterProgram'ed in this binary?): %w", err)
	}
	proc, err := pod.SpawnAt(pi.Name, prog, pi.VPID)
	if err != nil {
		return err
	}
	proc.RestoreSignals(pi.Signals)
	proc.RestoreCPUTime(pi.CPUTime)

	as := proc.Mem()
	for _, r := range pi.Memory.Regions {
		if err := as.InstallRegion(r); err != nil {
			return fmt.Errorf("region %+v: %w", r, err)
		}
	}
	if err := as.InstallPages(pi.Memory.PageNums, pi.Memory.Page); err != nil {
		return err
	}

	stack := kern.Stack()
	for _, fi := range pi.FDs {
		switch fi.Kind {
		case kernel.FDConn:
			conn, err := stack.RestoreTCP(fi.Conn)
			if err != nil {
				return fmt.Errorf("fd %d (tcp %v): %w", fi.Num, fi.Conn.Tuple, err)
			}
			proc.InstallConnFD(fi.Num, conn)
		case kernel.FDListener:
			l, err := stack.RestoreListener(fi.Listener)
			if err != nil {
				return fmt.Errorf("fd %d (listener %v): %w", fi.Num, fi.Listener.Local, err)
			}
			proc.InstallListenerFD(fi.Num, l)
		case kernel.FDUDP:
			u, err := stack.OpenUDP(fi.UDP.Local)
			if err != nil {
				return fmt.Errorf("fd %d (udp %v): %w", fi.Num, fi.UDP.Local, err)
			}
			u.Broadcast = fi.UDP.Broadcast
			u.RestoreMessages(fi.UDP.Queue)
			proc.InstallUDPFD(fi.Num, u)
		case kernel.FDPipeRead, kernel.FDPipeWrite:
			p, okPipe := pipes[fi.PipeID]
			if !okPipe {
				return fmt.Errorf("fd %d: unknown pipe id %d", fi.Num, fi.PipeID)
			}
			proc.InstallPipeFD(fi.Num, p, fi.Kind == kernel.FDPipeWrite)
		default:
			return fmt.Errorf("fd %d: unknown kind %v", fi.Num, fi.Kind)
		}
	}
	return nil
}
