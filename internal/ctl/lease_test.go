package ctl

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// leaseStep is one thing done to a lease at a virtual time.
type leaseStep struct {
	at   sim.Duration
	do   string // "register" or "pong"
	name string // a, b or c
}

// TestLease drives a lease with the core timings through register and
// pong steps and pins what its hooks see, stamped in virtual ms. An
// address named in answer pongs inside its ping hook.
func TestLease(t *testing.T) {
	const ms = sim.Millisecond
	for _, tc := range []struct {
		name   string
		answer string
		steps  []leaseStep
		until  sim.Duration
		want   []string
	}{{
		name:   "pings go out in registration order",
		answer: "abc",
		steps:  []leaseStep{{0, "register", "c"}, {0, "register", "a"}, {50 * ms, "register", "b"}},
		until:  250 * ms,
		want:   []string{"100 ping c", "100 ping a", "100 ping b", "200 ping c", "200 ping a", "200 ping b"},
	}, {
		name:   "an address expires at the first tick past the timeout, once, and is never pinged again",
		answer: "b",
		steps:  []leaseStep{{0, "register", "a"}, {0, "register", "b"}},
		until:  750 * ms,
		want: []string{"100 ping a", "100 ping b", "200 ping a", "200 ping b", "300 ping a", "300 ping b",
			"400 dead a", "400 ping b", "500 ping b", "600 ping b", "700 ping b"},
	}, {
		name:  "a pong from an unknown or a dead address changes nothing",
		steps: []leaseStep{{0, "register", "a"}, {250 * ms, "pong", "b"}, {450 * ms, "pong", "a"}},
		until: 750 * ms,
		want:  []string{"100 ping a", "200 ping a", "250 pong b false", "300 ping a", "400 dead a", "450 pong a false"},
	}, {
		name:  "registering an address again does not extend its lease",
		steps: []leaseStep{{0, "register", "a"}, {250 * ms, "register", "a"}},
		until: 750 * ms,
		want:  []string{"100 ping a", "200 ping a", "300 ping a", "400 dead a"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine(1)
			addrs := map[string]tcpip.AddrPort{}
			names := map[tcpip.AddrPort]string{}
			for i, n := range []string{"a", "b", "c"} {
				addrs[n] = tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, byte(i + 1)}, Port: 7077}
				names[addrs[n]] = n
			}
			var got []string
			note := func(format string, args ...any) {
				got = append(got, fmt.Sprintf("%d ", engine.Now()/sim.Time(ms))+fmt.Sprintf(format, args...))
			}
			var l *Lease
			l = NewLease(engine, 100*ms, 350*ms, func(a tcpip.AddrPort) {
				note("ping %s", names[a])
				if strings.Contains(tc.answer, names[a]) && !l.Pong(a) {
					t.Errorf("a live lease refused %s's pong", names[a])
				}
			}, func(a tcpip.AddrPort) {
				note("dead %s", names[a])
				if !l.Dead(a) {
					t.Errorf("%s's onDead ran before its lease read dead", names[a])
				}
			})
			for _, s := range tc.steps {
				engine.Schedule(s.at, func() {
					if s.do == "register" {
						l.Register(addrs[s.name])
						return
					}
					last := l.LastPong(addrs[s.name])
					ok := l.Pong(addrs[s.name])
					note("pong %s %v", s.name, ok)
					if l.LastPong(addrs[s.name]) != last {
						t.Errorf("a refused pong moved %s's last pong", s.name)
					}
				})
			}
			if err := engine.RunFor(tc.until); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("hooks saw\n  %q\nwant\n  %q", got, tc.want)
			}
		})
	}
}
