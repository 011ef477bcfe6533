package ctl

import (
	"bytes"
	"errors"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// tmsg is the test codec's message: a head that travels staged and an
// optional bulk part that travels uncopied.
type tmsg struct {
	head string
	bulk []byte
	ctx  trace.SpanContext
	tier Tier
}

// tcodec frames a tmsg as 'm' ‖ head ‖ bulk. A payload that does not
// start with 'm' does not decode.
var tcodec = Codec[*tmsg]{
	Encode: func(buf *bytes.Buffer, m *tmsg) ([][]byte, trace.SpanContext, Tier, error) {
		buf.WriteByte('m')
		buf.WriteString(m.head)
		var parts [][]byte
		if m.bulk != nil {
			parts = [][]byte{m.bulk}
		}
		return parts, m.ctx, m.tier, nil
	},
	Decode: func(r PieceReader, ctx trace.SpanContext) (*tmsg, error) {
		payload := r.Peek(r.Len())
		if len(payload) == 0 || payload[0] != 'm' {
			return nil, errors.New("not a tmsg")
		}
		return &tmsg{head: string(payload[1:]), ctx: ctx}, nil
	},
}

// epRig is two stacks on one switch: cli dials, srv listens on port 99.
type epRig struct {
	t        *testing.T
	engine   *sim.Engine
	cli, srv *Endpoint[*tmsg]
	got      []*tmsg        // what srv received
	from     []*Link[*tmsg] // and on which link
}

func newEpRig(t *testing.T) *epRig {
	t.Helper()
	r := &epRig{t: t, engine: sim.NewEngine(7)}
	sw := ether.NewSwitch(r.engine)
	mk := func(i int) *tcpip.Stack {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(r.engine, "eth0", mac)
		sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(r.engine, "n")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		return st
	}
	r.cli = NewEndpoint(mk(0), tcodec, func(*Link[*tmsg], *tmsg) {})
	r.srv = NewEndpoint(mk(1), tcodec, func(l *Link[*tmsg], m *tmsg) {
		r.got = append(r.got, m)
		r.from = append(r.from, l)
	})
	if err := r.srv.Listen(99); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *epRig) run(d sim.Duration) {
	r.t.Helper()
	if err := r.engine.RunFor(d); err != nil {
		r.t.Fatal(err)
	}
}

// TestEndpointReusesOnlyLiveLinks: Dial hands back the link it dialed
// while that link lives, and a link that died is forgotten at once — not
// established, so not handed out for a send — and dialed afresh.
func TestEndpointReusesOnlyLiveLinks(t *testing.T) {
	r := newEpRig(t)
	addr := r.srv.Addr()
	l1, err := r.cli.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.cli.Link(addr); ok {
		t.Fatal("Link handed out a link still in its handshake")
	}
	r.run(50 * sim.Millisecond)
	if l2, _ := r.cli.Dial(addr); l2 != l1 {
		t.Fatal("Dial dialed again while the first link lived")
	}
	if l, ok := r.cli.Link(addr); !ok || l != l1 {
		t.Fatal("Link did not hand out the established link")
	}
	l1.TCP().Destroy()
	if _, ok := r.cli.Link(addr); ok {
		t.Fatal("Link handed out a dead link")
	}
	l3, err := r.cli.Dial(addr)
	if err != nil || l3 == l1 {
		t.Fatalf("Dial after the link died: %v, same link %v", err, l3 == l1)
	}
	if err := l3.Send(&tmsg{head: "again"}); err != nil {
		t.Fatal(err)
	}
	r.run(50 * sim.Millisecond)
	if len(r.got) != 1 || r.got[0].head != "again" {
		t.Fatalf("received %d messages, want the one sent on the new link", len(r.got))
	}
}

// TestEndpointFramesThroughTheCodec: the head is staged, the bulk part
// is not, the trace context comes off the message, and a payload that
// does not decode is a connection error — not dispatched, and the link
// it came in on is forgotten.
func TestEndpointFramesThroughTheCodec(t *testing.T) {
	r := newEpRig(t)
	addr := r.srv.Addr()
	l, err := r.cli.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	bulk := bytes.Repeat([]byte{0xa5}, 64<<10)
	ctx := trace.SpanContext{Op: 3, Span: 9}
	if err := l.Send(&tmsg{head: "head", bulk: bulk, ctx: ctx, tier: TierStream}); err != nil {
		t.Fatal(err)
	}
	if l.head.Len() != len("mhead") {
		t.Fatalf("staged %d bytes, want the %d-byte head alone", l.head.Len(), len("mhead"))
	}
	r.run(100 * sim.Millisecond)
	if len(r.got) != 1 || r.got[0].head != "head"+string(bulk) || r.got[0].ctx != ctx {
		t.Fatalf("received %d messages; want the head, its bulk and trace context %v", len(r.got), ctx)
	}
	// The server answers with a frame that is no message.
	if err := r.from[0].Conn.Send([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	r.run(50 * sim.Millisecond)
	if _, ok := r.cli.Link(addr); ok {
		t.Fatal("the endpoint kept a link that sent an undecodable frame")
	}
	if l2, _ := r.cli.Dial(addr); l2 == l {
		t.Fatal("Dial reused a link that sent an undecodable frame")
	}
}

// TestEndpointConnectReportsOnce: Connect calls done exactly once — at
// once when nothing needs dialing, when every dialed link is
// established, or at the first error.
func TestEndpointConnectReportsOnce(t *testing.T) {
	r := newEpRig(t)
	addr := r.srv.Addr()
	var errs []error
	done := func(err error) { errs = append(errs, err) }

	r.cli.Connect([]tcpip.AddrPort{addr, addr}, done)
	if len(errs) != 0 {
		t.Fatal("Connect reported before the handshake")
	}
	r.run(50 * sim.Millisecond)
	if len(errs) != 1 || errs[0] != nil {
		t.Fatalf("Connect to a listener reported %v, want one nil", errs)
	}

	errs = nil
	r.cli.Connect([]tcpip.AddrPort{addr}, done)
	if len(errs) != 1 || errs[0] != nil {
		t.Fatalf("Connect over a live link reported %v, want one nil at once", errs)
	}

	// The reset comes back before the other link is up; that link's
	// handshake must not report a second time.
	errs = nil
	l, _ := r.cli.Link(addr)
	l.TCP().Destroy()
	refused := tcpip.AddrPort{Addr: addr.Addr, Port: 98}
	r.cli.Connect([]tcpip.AddrPort{refused, addr}, done)
	r.run(50 * sim.Millisecond)
	if len(errs) != 1 || !errors.Is(errs[0], tcpip.ErrReset) {
		t.Fatalf("Connect to a port with no listener reported %v, want one ErrReset", errs)
	}
	if _, ok := r.cli.Link(addr); !ok {
		t.Fatal("the other link never came up")
	}
	if _, ok := r.cli.Link(refused); ok {
		t.Fatal("the refused link is still handed out")
	}
}

// TestEndpointConnectWaitsForAHandshakeInFlight: Connect to an address
// whose link was dialed but is not yet established waits for that
// handshake, and reports how it ended. It used to skip every link it
// knew and report nil at once, so a send right after found no
// established link.
func TestEndpointConnectWaitsForAHandshakeInFlight(t *testing.T) {
	r := newEpRig(t)
	addr := r.srv.Addr()
	refused := tcpip.AddrPort{Addr: addr.Addr, Port: 98}
	for _, to := range []tcpip.AddrPort{addr, refused} {
		if _, err := r.cli.Dial(to); err != nil {
			t.Fatal(err)
		}
		var errs []error
		r.cli.Connect([]tcpip.AddrPort{to}, func(err error) {
			errs = append(errs, err)
			if _, up := r.cli.Link(to); up != (err == nil) {
				t.Errorf("Connect to %v reported %v with the link established %v", to, err, up)
			}
		})
		if len(errs) != 0 {
			t.Fatalf("Connect to %v reported %v during the handshake", to, errs)
		}
		r.run(50 * sim.Millisecond)
		if want := to == refused; len(errs) != 1 || errors.Is(errs[0], tcpip.ErrReset) != want {
			t.Fatalf("Connect to %v reported %v, want one report, ErrReset %v", to, errs, want)
		}
	}
}
