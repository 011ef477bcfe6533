// Package nodet is a cruzvet fixture: every construct the
// nodeterminism analyzer must flag, plus the seeded/virtual-time
// equivalents it must accept.
package nodet

import (
	crand "crypto/rand"
	"math/rand"
	"os"
	"sync"
	"time"
)

func wallClock() {
	_ = time.Now()                   // want `time\.Now`
	time.Sleep(time.Millisecond)     // want `time\.Sleep`
	_ = time.Since(time.Time{})      // want `time\.Since`
	<-time.After(time.Second)        // want `time\.After`
	t := time.NewTicker(time.Second) // want `time\.NewTicker`
	t.Stop()
}

func ambientEntropy() {
	_ = rand.Intn(4)                   // want `process-global random source`
	rand.Shuffle(0, func(i, j int) {}) // want `process-global random source`
	var b [8]byte
	_, _ = crand.Read(b[:]) // want `host entropy`
}

func ambientOS() {
	_ = os.Getpid()      // want `ambient process state`
	_, _ = os.Hostname() // want `ambient process state`
	_ = os.Getenv("X")   // want `ambient process state`
}

func rawGoroutine(ch chan int) {
	go func() { ch <- 1 }() // want `raw go statement`
}

// seeded randomness and explicit time values are fine.
func allowed() {
	r := rand.New(rand.NewSource(7))
	_ = r.Intn(4) // method on a seeded source: not ambient
	d := 5 * time.Millisecond
	_ = d
	var at time.Time
	_ = at.Add(d) // arithmetic on explicit values, no clock read
}

// The simulation is single-threaded: a lock declared anywhere in a
// sim-side package is a finding, whatever holds it.
var pkgMu sync.Mutex // want `sync\.Mutex declared in sim-side package`

type guarded struct {
	mu sync.Mutex // want `sync\.Mutex declared in sim-side package`
	n  int
}

type embedded struct {
	sync.RWMutex // want `sync\.RWMutex declared in sim-side package`
}

func localLock(g *guarded, e *embedded) {
	var mu sync.Mutex // want `sync\.Mutex declared in sim-side package`
	mu.Lock()
	g.n++
	mu.Unlock()
	e.RLock()
	e.RUnlock()
}
