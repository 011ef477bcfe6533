package ctl

import (
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// Lease is a daemon's judge of silence: the heartbeat lease the Cruz
// coordinator and the flushing coordinator each hold on the agents they
// watch. It keeps the addresses registered with it in registration order
// and runs one ticker. On every tick it visits each address in that
// order: one silent for longer than the timeout gets the daemon's onDead
// hook, called inline, once — it is never pinged again — and every other
// live one gets the daemon's ping hook. The hooks send and pay for what
// they send; the lease itself sends nothing and charges no CPU.
type Lease struct {
	engine         *sim.Engine
	every, timeout sim.Duration
	ping, onDead   func(tcpip.AddrPort)
	peers          []leased               // registration order
	index          map[tcpip.AddrPort]int // an address's place in peers
	ticker         *sim.Ticker
}

// leased is one registered address: its last proof of life — its last
// pong, or when its lease started — and whether the lease expired.
type leased struct {
	addr     tcpip.AddrPort
	lastPong sim.Time
	dead     bool
}

// NewLease creates a lease that ticks every period, from the first
// Register on, and declares an address dead after timeout of silence.
func NewLease(engine *sim.Engine, every, timeout sim.Duration, ping, onDead func(tcpip.AddrPort)) *Lease {
	return &Lease{engine: engine, every: every, timeout: timeout, ping: ping, onDead: onDead}
}

// Register starts the lease of each address in addrs that has none, from
// now; the first address registered starts the ticker. An address
// registered before keeps its lease as it stands: registering it again
// neither extends it nor revives a dead one.
func (l *Lease) Register(addrs ...tcpip.AddrPort) {
	if l.index == nil { // sized for the first batch, which is usually all
		l.index = make(map[tcpip.AddrPort]int, len(addrs))
		l.peers = make([]leased, 0, len(addrs))
	}
	now := l.engine.Now()
	for _, a := range addrs {
		if _, ok := l.index[a]; !ok {
			l.index[a] = len(l.peers)
			l.peers = append(l.peers, leased{addr: a, lastPong: now})
		}
	}
	if l.ticker == nil && len(l.peers) > 0 {
		l.ticker = l.engine.NewTicker(l.every, l.tick)
	}
}

// tick expires the leases that ran out and pings the rest, address by
// address in registration order.
func (l *Lease) tick() {
	now := l.engine.Now()
	for i := range l.peers {
		p := &l.peers[i]
		switch {
		case p.dead:
		case now.Sub(p.lastPong) > l.timeout:
			p.dead = true
			l.onDead(p.addr)
		default:
			l.ping(p.addr)
		}
	}
}

// Pong records a proof of life from addr, reporting whether addr holds a
// live lease. A pong from an address never registered, or from one
// already declared dead, changes nothing.
func (l *Lease) Pong(addr tcpip.AddrPort) bool {
	i, ok := l.index[addr]
	if !ok || l.peers[i].dead {
		return false
	}
	l.peers[i].lastPong = l.engine.Now()
	return true
}

// Dead reports whether addr's lease expired. An address never registered
// is not dead.
func (l *Lease) Dead(addr tcpip.AddrPort) bool {
	i, ok := l.index[addr]
	return ok && l.peers[i].dead
}

// LastPong returns addr's last proof of life: its last pong, or when its
// lease started if it never answered; zero for an address never
// registered.
func (l *Lease) LastPong(addr tcpip.AddrPort) sim.Time {
	if i, ok := l.index[addr]; ok {
		return l.peers[i].lastPong
	}
	return 0
}
