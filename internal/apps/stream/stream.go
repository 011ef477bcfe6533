// Package stream implements the paper's TCP streaming benchmark (§6,
// Fig. 6): "a transmitting node sending data through a TCP socket
// connection to a receiving node at maximum rate". The receiver exposes
// byte counters that the benchmark harness samples into the sliding-
// window rate trace of Fig. 6.
package stream

import (
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// DefaultPort is the streaming port.
const DefaultPort uint16 = 9300

// Sender pushes an unbounded byte stream at maximum rate.
type Sender struct {
	Target tcpip.AddrPort
	// ChunkBytes is the write size per send call.
	ChunkBytes int
	// TotalBytes stops after this many bytes (0 = forever).
	TotalBytes uint64
	// Ballast allocates working-set memory so checkpoints of the
	// benchmark carry a realistic image size.
	Ballast uint64

	Phase int
	FD    int
	Sent  uint64
	Fault string

	// pattern is the stream content, byte(i) at index i, one chunk plus
	// 256 long so every window of ChunkBytes is a slice of it. Unexported,
	// so no checkpoint carries it: a restored sender rebuilds it on its
	// first send.
	pattern []byte
}

// NewSender streams to target.
func NewSender(target tcpip.AddrPort) *Sender {
	return &Sender{Target: target, ChunkBytes: 32 << 10}
}

func (s *Sender) fail(m string) kernel.StepResult {
	s.Fault = m
	return kernel.Exit(0, 2)
}

// Step implements kernel.Program.
func (s *Sender) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch s.Phase {
	case 0:
		if err := allocBallast(ctx, s.Ballast); err != nil {
			return s.fail("ballast: " + err.Error())
		}
		fd, err := ctx.Connect(s.Target)
		if err != nil {
			return s.fail("connect: " + err.Error())
		}
		s.FD = fd
		s.Phase = 1
		return kernel.Continue(0)
	case 1:
		ok, err := ctx.ConnEstablished(s.FD)
		if err != nil {
			return s.fail("establish: " + err.Error())
		}
		if !ok {
			return kernel.Sleep(0, sim.Millisecond)
		}
		s.Phase = 2
		return kernel.Continue(0)
	default:
		if s.TotalBytes > 0 && s.Sent >= s.TotalBytes {
			ctx.CloseFD(s.FD) //cruzvet:allow errdrop close immediately before exit; the kernel reaps the fd table anyway
			return kernel.Exit(0, 0)
		}
		// Stream content: position-stamped bytes, byte(pos) at stream
		// position pos, so the receiver can verify integrity across
		// checkpoints. Send copies what it accepts, so the pattern is
		// never held beyond the call.
		if len(s.pattern) != s.ChunkBytes+256 {
			s.pattern = make([]byte, s.ChunkBytes+256)
			for i := range s.pattern {
				s.pattern[i] = byte(i)
			}
		}
		off := int(s.Sent % 256)
		n, err := ctx.Send(s.FD, s.pattern[off:off+s.ChunkBytes])
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnWrite(0, s.FD)
		}
		if err != nil {
			return s.fail("send: " + err.Error())
		}
		s.Sent += uint64(n)
		return kernel.Continue(0)
	}
}

// allocBallast materializes n bytes of working set.
func allocBallast(ctx *kernel.ProcContext, n uint64) error {
	if n == 0 {
		return nil
	}
	base, err := ctx.Mem().Alloc(n, "ballast")
	if err != nil {
		return err
	}
	for off := uint64(0); off < n; off += 4096 {
		if err := ctx.Mem().WriteUint64(base+off, off); err != nil {
			return err
		}
	}
	return nil
}

// Receiver drains the stream, validating content and counting bytes.
type Receiver struct {
	Port uint16
	// Ballast allocates working-set memory (see Sender.Ballast).
	Ballast uint64

	Phase int
	LFD   int
	FD    int
	// Received is the total byte count; the harness samples it to build
	// the Fig. 6 rate trace.
	Received uint64
	Fault    string

	// buf is the receive buffer, reused by every step. Unexported, so no
	// checkpoint carries it: a restored receiver regrows it.
	buf []byte
}

// NewReceiver listens on port (0 = DefaultPort).
func NewReceiver(port uint16) *Receiver {
	if port == 0 {
		port = DefaultPort
	}
	return &Receiver{Port: port}
}

func (r *Receiver) fail(m string) kernel.StepResult {
	r.Fault = m
	return kernel.Exit(0, 2)
}

// Step implements kernel.Program.
func (r *Receiver) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch r.Phase {
	case 0:
		if err := allocBallast(ctx, r.Ballast); err != nil {
			return r.fail("ballast: " + err.Error())
		}
		fd, err := ctx.Listen(tcpip.AddrPort{Port: r.Port}, 4)
		if err != nil {
			return r.fail("listen: " + err.Error())
		}
		r.LFD = fd
		r.Phase = 1
		return kernel.Continue(0)
	case 1:
		fd, err := ctx.Accept(r.LFD)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, r.LFD)
		}
		if err != nil {
			return r.fail("accept: " + err.Error())
		}
		r.FD = fd
		r.Phase = 2
		return kernel.Continue(0)
	default:
		if r.buf == nil {
			r.buf = make([]byte, 64<<10)
		}
		n, err := ctx.Recv(r.FD, r.buf, false)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, r.FD)
		}
		if err != nil {
			// EOF ends the benchmark cleanly.
			return kernel.Exit(0, 0)
		}
		for i, b := range r.buf[:n] {
			if b != byte(r.Received+uint64(i)) {
				return r.fail("stream corruption")
			}
		}
		r.Received += uint64(n)
		// Consuming the stream costs a little CPU per chunk, like a real
		// receiver touching its data.
		return kernel.Continue(2 * sim.Microsecond)
	}
}
