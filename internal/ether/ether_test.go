package ether

import (
	"testing"

	"cruz/internal/sim"
)

type testPayload struct {
	size int
	tag  string
}

func (p testPayload) WireSize() int { return p.size }

func mac(b byte) MAC { return MAC{0x02, 0, 0, 0, 0, b} }

type rig struct {
	engine *sim.Engine
	sw     *Switch
	nics   []*NIC
	rx     [][]Frame
}

func newRig(t *testing.T, n int, cfg LinkConfig) *rig {
	t.Helper()
	r := &rig{engine: sim.NewEngine(1), rx: make([][]Frame, n)}
	r.sw = NewSwitch(r.engine)
	for i := 0; i < n; i++ {
		i := i
		nic := NewNIC(r.engine, "nic", mac(byte(i+1)))
		nic.SetReceiver(func(f Frame) { r.rx[i] = append(r.rx[i], f) })
		r.sw.Attach(nic, cfg)
		r.nics = append(r.nics, nic)
	}
	return r
}

func TestUnknownUnicastFloods(t *testing.T) {
	r := newRig(t, 3, GigabitLink)
	r.nics[0].Send(Frame{Src: mac(1), Dst: mac(2), Type: TypeIPv4, Payload: testPayload{size: 100}})
	r.engine.Run()
	// Destination unlearned: flooded to ports 1 and 2; NIC 2 filters it.
	if len(r.rx[1]) != 1 {
		t.Fatalf("nic1 got %d frames, want 1", len(r.rx[1]))
	}
	if len(r.rx[2]) != 0 {
		t.Fatalf("nic2 got %d frames, want 0 (MAC filter)", len(r.rx[2]))
	}
	if r.nics[2].Stats.RxFiltered != 1 {
		t.Fatalf("nic2 RxFiltered = %d, want 1", r.nics[2].Stats.RxFiltered)
	}
	if r.sw.Stats.Flooded != 1 {
		t.Fatalf("Flooded = %d, want 1", r.sw.Stats.Flooded)
	}
	if !r.rx[1][0].Flooded {
		t.Fatal("a flooded copy arrived unmarked: its receiver would think it owns the payload")
	}
}

func TestLearningDirectsSubsequentFrames(t *testing.T) {
	r := newRig(t, 3, GigabitLink)
	// nic1 speaks first so the switch learns its port.
	r.nics[1].Send(Frame{Src: mac(2), Dst: mac(1), Type: TypeIPv4, Payload: testPayload{size: 64}})
	r.engine.Run()
	r.nics[0].Send(Frame{Src: mac(1), Dst: mac(2), Type: TypeIPv4, Payload: testPayload{size: 64}})
	r.engine.Run()
	if got := r.sw.LearnedPortOf(mac(2)); got != r.nics[1] {
		t.Fatalf("LearnedPortOf(mac2) = %v", got)
	}
	if len(r.rx[1]) != 1 {
		t.Fatalf("nic1 frames = %d, want 1", len(r.rx[1]))
	}
	// nic2 never saw the directed frame: no flood.
	if r.nics[2].Stats.RxFiltered+r.nics[2].Stats.RxFrames != 1 {
		t.Fatalf("nic2 unexpectedly saw the directed frame")
	}
	if r.sw.Stats.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", r.sw.Stats.Forwarded)
	}
	if r.rx[1][0].Flooded {
		t.Fatal("a forwarded unicast frame arrived marked as flooded")
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	r := newRig(t, 4, GigabitLink)
	r.nics[0].Send(Frame{Src: mac(1), Dst: Broadcast, Type: TypeARP, Payload: testPayload{size: 28}})
	r.engine.Run()
	for i := 1; i < 4; i++ {
		if len(r.rx[i]) != 1 || !r.rx[i][0].Flooded {
			t.Fatalf("nic%d got %d broadcast frames (%v), want 1, marked flooded", i, len(r.rx[i]), r.rx[i])
		}
	}
	if len(r.rx[0]) != 0 {
		t.Fatal("sender received its own broadcast")
	}
}

func TestMultipleMACsPerNIC(t *testing.T) {
	r := newRig(t, 2, GigabitLink)
	vifMAC := mac(0x77)
	r.nics[1].AddMAC(vifMAC)
	r.nics[0].Send(Frame{Src: mac(1), Dst: vifMAC, Type: TypeIPv4, Payload: testPayload{size: 64}})
	r.engine.Run()
	if len(r.rx[1]) != 1 {
		t.Fatalf("VIF MAC frame not delivered")
	}
	r.nics[1].RemoveMAC(vifMAC)
	r.sw.ForgetMAC(vifMAC)
	r.nics[0].Send(Frame{Src: mac(1), Dst: vifMAC, Type: TypeIPv4, Payload: testPayload{size: 64}})
	r.engine.Run()
	if len(r.rx[1]) != 1 {
		t.Fatalf("frame delivered after MAC removal")
	}
	// Primary MAC cannot be removed.
	r.nics[1].RemoveMAC(mac(2))
	if !r.nics[1].HasMAC(mac(2)) {
		t.Fatal("primary MAC was removed")
	}
}

func TestWireSizeMinimum(t *testing.T) {
	f := Frame{Payload: testPayload{size: 1}}
	if f.WireSize() != minFrameBytes {
		t.Fatalf("WireSize = %d, want %d", f.WireSize(), minFrameBytes)
	}
	f = Frame{Payload: testPayload{size: 1500}}
	if f.WireSize() != 1500+headerBytes+crcBytes {
		t.Fatalf("WireSize = %d", f.WireSize())
	}
}

func TestLatencyModel(t *testing.T) {
	// One 1500-byte frame over a gigabit link: serialization 2x (NIC out,
	// switch out) plus 2x 5µs latency.
	r := newRig(t, 2, GigabitLink)
	var arrival sim.Time
	r.nics[1].SetReceiver(func(Frame) { arrival = r.engine.Now() })
	r.nics[0].Send(Frame{Src: mac(1), Dst: Broadcast, Payload: testPayload{size: 1500 - headerBytes - crcBytes}})
	r.engine.Run()
	ser := GigabitLink.serialization(1500)
	want := sim.Time(0).Add(ser + GigabitLink.Latency + ser + GigabitLink.Latency)
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
	if ser != sim.Duration(12*sim.Microsecond) {
		t.Fatalf("1500B @ 1Gb/s serialization = %v, want 12µs", ser)
	}
}

func TestBackToBackSendsSerialize(t *testing.T) {
	r := newRig(t, 2, GigabitLink)
	var arrivals []sim.Time
	r.nics[1].SetReceiver(func(Frame) { arrivals = append(arrivals, r.engine.Now()) })
	payload := testPayload{size: 1500 - headerBytes - crcBytes}
	for i := 0; i < 3; i++ {
		r.nics[0].Send(Frame{Src: mac(1), Dst: Broadcast, Payload: payload})
	}
	r.engine.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(arrivals))
	}
	ser := GigabitLink.serialization(1500)
	for i := 1; i < 3; i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		if gap != ser {
			t.Fatalf("inter-frame gap %d = %v, want %v", i, gap, ser)
		}
	}
}

func TestSendDetached(t *testing.T) {
	e := sim.NewEngine(1)
	nic := NewNIC(e, "lonely", mac(9))
	if err := nic.Send(Frame{}); err != ErrDetached {
		t.Fatalf("err = %v, want ErrDetached", err)
	}
}

func TestLinkDownDropsBothDirections(t *testing.T) {
	r := newRig(t, 3, GigabitLink)
	r.sw.SetLinkDown(r.nics[1], true)
	r.nics[0].Send(Frame{Src: mac(1), Dst: Broadcast, Payload: testPayload{size: 64}})
	r.nics[1].Send(Frame{Src: mac(2), Dst: Broadcast, Payload: testPayload{size: 64}})
	r.engine.Run()
	if len(r.rx[1]) != 0 {
		t.Fatal("frame delivered over downed link")
	}
	if len(r.rx[2]) != 1 { // only nic0's broadcast arrives
		t.Fatalf("nic2 got %d frames, want 1", len(r.rx[2]))
	}
}

func TestDropRateLosesFrames(t *testing.T) {
	r := newRig(t, 2, GigabitLink)
	r.sw.SetDropRate(r.nics[0], 1.0)
	for i := 0; i < 10; i++ {
		r.nics[0].Send(Frame{Src: mac(1), Dst: Broadcast, Payload: testPayload{size: 64}})
	}
	r.engine.Run()
	if len(r.rx[1]) != 0 {
		t.Fatalf("frames delivered despite 100%% drop: %d", len(r.rx[1]))
	}
	if r.nics[0].Stats.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", r.nics[0].Stats.Dropped)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", m.String())
	}
	if !Broadcast.IsBroadcast() || m.IsBroadcast() {
		t.Fatal("IsBroadcast misbehaves")
	}
	if !(MAC{}).IsZero() || m.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

// TestWarmSwitchForwardsWithoutAllocating: once the per-port queues and
// the engine's event pool have reached their working size, carrying
// unicast, flooded and broadcast frames, frames lost on a downed link and
// frames thrown at a lossy one allocates nothing — a frame in flight is a
// value in its port's queue, not a closure.
func TestWarmSwitchForwardsWithoutAllocating(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e)
	var got [4]int
	nics := make([]*NIC, 4)
	for i := range nics {
		i := i
		nics[i] = NewNIC(e, "nic", mac(byte(i+1)))
		nics[i].SetReceiver(func(Frame) { got[i]++ })
		sw.Attach(nics[i], GigabitLink)
	}
	var pl Payload = testPayload{size: 100}
	send := func(from int, dst MAC, k int) {
		for ; k > 0; k-- {
			if err := nics[from].Send(Frame{Src: mac(byte(from + 1)), Dst: dst, Type: TypeIPv4, Payload: pl}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func() {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		send(0, mac(2), 4)    // learned unicast
		send(1, mac(1), 4)    // learned unicast, other direction
		send(2, mac(0x77), 2) // unknown: flooded
		send(3, Broadcast, 2)
		run()
		sw.SetLinkDown(nics[2], true)
		send(2, mac(1), 2) // lost at ingress
		send(0, mac(3), 2) // lost at egress
		run()
		sw.SetLinkDown(nics[2], false)
		sw.SetDropRate(nics[3], 0.5)
		send(3, mac(1), 4)
		send(0, mac(4), 4)
		run()
		sw.SetDropRate(nics[3], 0)
	}
	send(0, Broadcast, 1) // teach the switch every port
	send(1, Broadcast, 1)
	send(2, Broadcast, 1)
	send(3, Broadcast, 1)
	for i := 0; i < 10; i++ {
		cycle()
	}
	before := got
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a warm switch allocates %.1f times per cycle, want 0", avg)
	}
	if got[0] == before[0] || got[1] == before[1] {
		t.Fatal("the measured cycles delivered nothing")
	}
	if nics[2].Stats.Dropped == 0 || nics[3].Stats.Dropped == 0 || sw.Stats.Flooded == 0 {
		t.Fatalf("a path was not exercised: dropped %d/%d, flooded %d",
			nics[2].Stats.Dropped, nics[3].Stats.Dropped, sw.Stats.Flooded)
	}
}

// delivery is one frame accepted by a NIC: when, which NIC, which frame.
type delivery struct {
	at  sim.Time
	nic int
	tag string
}

// refFabric is the closure-per-hop fabric this package ran before frames
// in flight moved into per-port queues — NIC.Send and Switch.transmit each
// scheduled a closure capturing its frame — kept as the oracle the queues
// must reproduce event for event.
type refFabric struct {
	engine *sim.Engine
	ports  []*refPort // by NIC index
	table  map[MAC]*refPort
	log    []delivery
}

type refPort struct {
	f               *refFabric
	id              int
	mac             MAC
	cfg             LinkConfig
	nicFree, swFree sim.Time
	down            bool
	dropRate        float64
}

func (p *refPort) send(fr Frame) {
	e := p.f.engine
	start := max(e.Now(), p.nicFree)
	p.nicFree = start.Add(p.cfg.serialization(fr.WireSize()))
	e.ScheduleAt(p.nicFree.Add(p.cfg.Latency), func() { p.f.forward(p, fr) })
}

func (f *refFabric) forward(in *refPort, fr Frame) {
	if in.down || in.dropRate > 0 && f.engine.Rand().Float64() < in.dropRate {
		return
	}
	if !fr.Src.IsBroadcast() && !fr.Src.IsZero() {
		f.table[fr.Src] = in
	}
	if !fr.Dst.IsBroadcast() {
		if out, ok := f.table[fr.Dst]; ok {
			if out != in {
				f.transmit(out, fr)
			}
			return
		}
	}
	for _, out := range f.ports {
		if out != in {
			f.transmit(out, fr)
		}
	}
}

func (f *refFabric) transmit(out *refPort, fr Frame) {
	if out.down || out.dropRate > 0 && f.engine.Rand().Float64() < out.dropRate {
		return
	}
	start := max(f.engine.Now(), out.swFree)
	out.swFree = start.Add(out.cfg.serialization(fr.WireSize()))
	f.engine.ScheduleAt(out.swFree.Add(out.cfg.Latency), func() {
		if fr.Dst.IsBroadcast() || fr.Dst == out.mac {
			f.log = append(f.log, delivery{f.engine.Now(), out.id, fr.Payload.(testPayload).tag})
		}
	})
}

// fabric is what the order test drives: the switch under test or the
// closure oracle.
type fabric interface {
	send(from int, dst MAC, size int, tag string)
	setDown(i int, down bool)
	setDropRate(i int, rate float64)
	forget(m MAC)
}

type realFabric struct {
	t    *testing.T
	sw   *Switch
	nics []*NIC
}

func (r *realFabric) send(from int, dst MAC, size int, tag string) {
	if err := r.nics[from].Send(Frame{Src: mac(byte(from + 1)), Dst: dst, Type: TypeIPv4, Payload: testPayload{size, tag}}); err != nil {
		r.t.Fatal(err)
	}
}
func (r *realFabric) setDown(i int, down bool)        { r.sw.SetLinkDown(r.nics[i], down) }
func (r *realFabric) setDropRate(i int, rate float64) { r.sw.SetDropRate(r.nics[i], rate) }
func (r *realFabric) forget(m MAC)                    { r.sw.ForgetMAC(m) }

func (f *refFabric) send(from int, dst MAC, size int, tag string) {
	f.ports[from].send(Frame{Src: mac(byte(from + 1)), Dst: dst, Type: TypeIPv4, Payload: testPayload{size, tag}})
}
func (f *refFabric) setDown(i int, down bool)        { f.ports[i].down = down }
func (f *refFabric) setDropRate(i int, rate float64) { f.ports[i].dropRate = rate }
func (f *refFabric) forget(m MAC)                    { delete(f.table, m) }

// TestPortsDeliverInSendOrder: a scripted mix of bursts on gigabit, slow
// and zero-bandwidth links (so many frames on one wire arrive at one
// instant), flooding, learning, a lossy link and three links taken down,
// two with frames still on the wire, produces exactly the deliveries
// of the closure-per-hop fabric — same frames, same NICs, same instants,
// same order — and every sender's frames reach each NIC in send order.
func TestPortsDeliverInSendOrder(t *testing.T) {
	links := []LinkConfig{
		GigabitLink,
		{BandwidthBPS: 0, Latency: 3 * sim.Microsecond}, // zero bandwidth
		{BandwidthBPS: 0, Latency: 0},                   // nor latency
		{BandwidthBPS: 10_000_000, Latency: 50 * sim.Microsecond},
		GigabitLink,
	}
	script := func(e *sim.Engine, f fabric) {
		at := func(us int, fn func()) { e.ScheduleAt(sim.Time(sim.Duration(us)*sim.Microsecond), fn) }
		burst := func(from int, dst MAC, k, size int, name string) {
			for i := 0; i < k; i++ {
				f.send(from, dst, size+37*i, name+string(rune('a'+i)))
			}
		}
		at(0, func() {
			burst(0, Broadcast, 3, 200, "b0")
			burst(1, mac(1), 4, 60, "u1") // unlearned: flooded
			burst(2, Broadcast, 5, 900, "z2")
		})
		at(10, func() {
			burst(3, mac(5), 3, 1400, "s3")
			burst(4, mac(4), 3, 100, "g4")
			burst(2, mac(2), 4, 300, "z2u")
		})
		at(20, func() {
			f.setDropRate(0, 0.4)
			burst(0, mac(3), 20, 500, "lossy")
			burst(1, mac(1), 6, 80, "intoLossy")
		})
		at(30, func() {
			f.setDown(1, true)
			burst(2, mac(2), 5, 64, "toDown")
			burst(1, mac(3), 3, 64, "fromDown")
		})
		at(40, func() {
			f.setDown(1, false)
			f.setDropRate(0, 0)
			f.forget(mac(1))
			burst(4, mac(1), 3, 700, "refl")
		})
		at(50, func() {
			burst(3, mac(1), 10, 1400, "slow") // ≈1.2 ms each on the wire
			burst(4, mac(1), 5, 1400, "late")
		})
		at(56, func() { f.setDown(0, true) })  // frames to it are on both wires
		at(600, func() { f.setDown(3, true) }) // its burst is still leaving
		at(700, func() { burst(3, Broadcast, 2, 64, "gone") })
	}

	// The switch under test.
	e := sim.NewEngine(5)
	real := &realFabric{t: t, sw: NewSwitch(e)}
	var got []delivery
	for i, cfg := range links {
		i := i
		nic := NewNIC(e, "nic", mac(byte(i+1)))
		nic.SetReceiver(func(fr Frame) { got = append(got, delivery{e.Now(), i, fr.Payload.(testPayload).tag}) })
		real.sw.Attach(nic, cfg)
		real.nics = append(real.nics, nic)
	}
	script(e, real)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// The oracle, on a twin engine.
	re := sim.NewEngine(5)
	ref := &refFabric{engine: re, table: map[MAC]*refPort{}}
	for i, cfg := range links {
		ref.ports = append(ref.ports, &refPort{f: ref, id: i, mac: mac(byte(i + 1)), cfg: cfg})
	}
	script(re, ref)
	if err := re.Run(); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(ref.log) {
		t.Fatalf("%d deliveries, the closure fabric made %d", len(got), len(ref.log))
	}
	for i := range got {
		if got[i] != ref.log[i] {
			t.Fatalf("delivery %d = %+v, the closure fabric's = %+v", i, got[i], ref.log[i])
		}
	}
	// Each burst reaches each NIC in send order, and the script reaches
	// the cases it is written for.
	sameInstant, afterDown := false, false
	type stream struct {
		burst string
		nic   int
	}
	last := map[stream]byte{}
	for i, d := range got {
		if i > 0 && got[i-1].at == d.at && got[i-1].nic == d.nic {
			sameInstant = true
		}
		if d.nic == 0 && d.at > sim.Time(56*sim.Microsecond) {
			afterDown = true
		}
		k, seq := stream{d.tag[:len(d.tag)-1], d.nic}, d.tag[len(d.tag)-1]
		if prev, ok := last[k]; ok && prev >= seq {
			t.Fatalf("nic %d got %s after %s%c", d.nic, d.tag, k.burst, prev)
		}
		last[k] = seq
	}
	if !sameInstant || !afterDown || real.nics[0].Stats.Dropped == 0 || real.nics[1].Stats.Dropped == 0 {
		t.Fatalf("script misses a case: frames at one instant on one port %v, delivered after the link went down %v, dropped lossy %d, down %d",
			sameInstant, afterDown, real.nics[0].Stats.Dropped, real.nics[1].Stats.Dropped)
	}
}

// BenchmarkSwitchForward measures one learned unicast frame end to end
// through a warm switch: the NIC's serialisation, the hop to the switch,
// the forwarding decision and the hop to the receiving NIC. The allocs/op
// figure is TestWarmSwitchForwardsWithoutAllocating's floor.
func BenchmarkSwitchForward(b *testing.B) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e)
	from, to := NewNIC(e, "from", mac(1)), NewNIC(e, "to", mac(2))
	got := 0
	to.SetReceiver(func(Frame) { got++ })
	sw.Attach(from, GigabitLink)
	sw.Attach(to, GigabitLink)
	var pl Payload = testPayload{size: 1000}
	send := func(n *NIC, src, dst MAC) {
		if err := n.Send(Frame{Src: src, Dst: dst, Type: TypeIPv4, Payload: pl}); err != nil {
			b.Fatal(err)
		}
	}
	send(to, mac(2), Broadcast) // teach the switch
	const burst = 64            // frames in flight at once
	for i := 0; i < burst; i++ {
		send(from, mac(1), mac(2))
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(from, mac(1), mac(2))
		if i%burst == burst-1 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if got != b.N+burst {
		b.Fatalf("%d frames delivered, want %d", got, b.N+burst)
	}
}
