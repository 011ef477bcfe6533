package ctl

import (
	"cruz/internal/sim"
)

// Pacer is a token bucket shared by one node's control connections: it
// rate-limits TierBackground frames (replication and erasure-coded
// shard distribution) so durability traffic never saturates the link a
// pre-copy stream or foreground pod traffic is using. Tokens accrue at
// Rate bytes per second of virtual time up to Burst; a background frame
// starts only when the bucket is non-negative, and charges its full
// size (the bucket may go negative, which simply pushes the next start
// out — large frames stay whole on the wire, long-run rate is exact).
//
// Connections blocked on tokens register themselves; the pacer arms one
// engine timer for the earliest ready time and re-drains the waiters in
// registration order — deterministic, like every other event source.
type Pacer struct {
	engine *sim.Engine
	rate   int64 // bytes per second; <= 0 disables pacing
	burst  int64
	tokens int64
	last   sim.Time

	waiting []*Conn
	armed   bool
}

// NewPacer creates a token bucket refilling at rate bytes/sec with the
// given burst. rate <= 0 disables pacing (admit always succeeds).
func NewPacer(engine *sim.Engine, rate, burst int64) *Pacer {
	if burst <= 0 {
		burst = rate
	}
	return &Pacer{engine: engine, rate: rate, burst: burst, tokens: burst, last: engine.Now()}
}

func (p *Pacer) refill() {
	now := p.engine.Now()
	if now <= p.last {
		return
	}
	elapsed := now.Sub(p.last)
	p.last = now
	add := p.rate * int64(elapsed) / int64(sim.Second)
	p.tokens += add
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
}

// admit asks to start an n-byte background frame on conn c. On refusal
// the conn is queued for a wake-up once tokens recover.
func (p *Pacer) admit(c *Conn, n int64) bool {
	if p.rate <= 0 {
		return true
	}
	p.refill()
	if p.tokens < 0 {
		p.wait(c)
		return false
	}
	p.tokens -= n
	return true
}

func (p *Pacer) wait(c *Conn) {
	for _, w := range p.waiting {
		if w == c {
			c = nil
			break
		}
	}
	if c != nil {
		p.waiting = append(p.waiting, c)
	}
	if p.armed {
		return
	}
	deficit := -p.tokens
	if deficit < 0 {
		deficit = 0
	}
	// Time until the bucket is non-negative again, rounded up.
	wake := sim.Duration((deficit*int64(sim.Second) + p.rate - 1) / p.rate)
	if wake <= 0 {
		wake = sim.Duration(1)
	}
	p.armed = true
	p.engine.Schedule(wake, func() {
		p.armed = false
		ws := p.waiting
		p.waiting = nil
		for _, c := range ws {
			if c.tc.Err() == nil && c.tc.Established() {
				c.drain()
			}
		}
	})
}
