package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel runs fn(i) for every i in [0, n) on up to GOMAXPROCS
// processors and returns once all have returned: the fork-join of the
// host-side page kernels (a large batch of stale page hashes, erasure-code
// stripes) inside one engine event. The calling goroutine is one of the
// workers, so a fork of two starts one goroutine. fn must write only state
// that index i owns; then the result is the same whatever the schedule,
// and the join orders every write before the event goes on.
func Parallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := &forkJoin{n: int64(n), fn: fn}
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go f.helper() //cruzvet:allow nodeterminism host-CPU page math inside one event; Parallel joins before the event returns and each index writes only its own slot
	}
	f.work()
	f.wg.Wait()
}

// forkJoin is one Parallel call's shared state.
type forkJoin struct {
	next atomic.Int64 // the next index to claim
	n    int64
	fn   func(i int)
	wg   sync.WaitGroup // the helpers still working
}

// work claims and runs indexes until none is left.
func (f *forkJoin) work() {
	for i := f.next.Add(1) - 1; i < f.n; i = f.next.Add(1) - 1 {
		f.fn(int(i))
	}
}

// helper is a forked worker: it works, then lets the join go on.
func (f *forkJoin) helper() {
	defer f.wg.Done()
	f.work()
}
