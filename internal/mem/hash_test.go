package mem

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestHashPageKnownAnswers pins the page hash of two pages to constants:
// a hash is a chunk's address in every store and on the wire, so no
// rewrite of the kernels may move one. The pair kernel and the block
// entry points must agree with the single-page kernel.
func TestHashPageKnownAnswers(t *testing.T) {
	var zero, counting [PageSize]byte
	for i := range counting {
		counting[i] = byte(i)
	}
	wantZero := PageHash{Lo: 0xb93a0c83ce3b6325, Hi: 0xd43a141996345f30}
	wantCounting := PageHash{Lo: 0x88d6ce5789d35325, Hi: 0x4dd66fc6fe849f30}
	if got := hashPage(&zero); got != wantZero {
		t.Fatalf("hashPage(zero page) = %#x, want %#x", got, wantZero)
	}
	if got := hashPage(&counting); got != wantCounting {
		t.Fatalf("hashPage(counting page) = %#x, want %#x", got, wantCounting)
	}
	if a, b := hashPair(&zero, &counting); a != wantZero || b != wantCounting {
		t.Fatalf("hashPair(zero, counting) = %#x, %#x", a, b)
	}
	if a, b := hashPair(&counting, &zero); a != wantCounting || b != wantZero {
		t.Fatalf("hashPair(counting, zero) = %#x, %#x", a, b)
	}
	if got := HashBlock(counting[:]); got != wantCounting {
		t.Fatalf("HashBlock(counting page) = %#x", got)
	}
	blocks := append(append(append([]byte(nil), counting[:]...), zero[:]...), counting[:]...)
	for n := 0; n <= 3; n++ {
		out := make([]PageHash, n)
		HashBlocks(blocks[:n*PageSize], out)
		for i, h := range out {
			if want := []PageHash{wantCounting, wantZero, wantCounting}[i]; h != want {
				t.Fatalf("HashBlocks of %d blocks: block %d = %#x, want %#x", n, i, h, want)
			}
		}
	}
}

// hashTwins returns two address spaces with the same n random pages, of
// which every hashedEvery-th (if hashedEvery > 0) already has its hash
// cached in both, and the page numbers to ask for: the n pages with every
// fourth followed by one no page was ever written to.
func hashTwins(n, hashedEvery int, seed int64) (a, b *AddressSpace, pns []uint64) {
	rng := rand.New(rand.NewSource(seed))
	a, b = NewAddressSpace(), NewAddressSpace()
	base, _ := a.Alloc(uint64(2*n+1)*PageSize, "h")
	b.Alloc(uint64(2*n+1)*PageSize, "h")
	page := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		rng.Read(page)
		addr := base + uint64(2*i)*PageSize
		a.Write(addr, page)
		b.Write(addr, page)
		pns = append(pns, addr/PageSize)
		if hashedEvery > 0 && i%hashedEvery == 0 {
			a.PageHash(addr / PageSize)
			b.PageHash(addr / PageSize)
		}
		if i%4 == 3 {
			pns = append(pns, addr/PageSize+1)
		}
	}
	return a, b, pns
}

// TestPageHashesMatchPageHash holds the batch to the per-page calls it
// replaces — the same hashes, the same caches, the same HashComputes —
// at batch sizes on both sides of the two-processor split, with
// unmaterialised and already-hashed pages among the stale ones, on one
// processor and on two.
func TestPageHashesMatchPageHash(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, n := range []int{0, 1, 7, parallelHashPages - 1, 3*parallelHashPages + 3} {
			for _, hashedEvery := range []int{0, 3} {
				t.Run(fmt.Sprintf("procs=%d/pages=%d/hashedEvery=%d", procs, n, hashedEvery), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					batch, single, pns := hashTwins(n, hashedEvery, int64(n))
					want := make([]PageHash, len(pns))
					for i, pn := range pns {
						want[i] = single.PageHash(pn)
					}
					before := batch.HashComputes()
					got := make([]PageHash, len(pns))
					batch.PageHashes(pns, got)
					if d, w := batch.HashComputes()-before, single.HashComputes()-before; d != w {
						t.Fatalf("PageHashes counted %d fresh hashes, PageHash %d", d, w)
					}
					for i := range pns {
						if got[i] != want[i] {
							t.Fatalf("page %d of %d: PageHashes = %#x, PageHash = %#x", i, len(pns), got[i], want[i])
						}
						if h := batch.PageHash(pns[i]); h != want[i] {
							t.Fatalf("page %d: cached %#x after PageHashes, want %#x", i, h, want[i])
						}
					}
					if batch.HashComputes() != single.HashComputes() {
						t.Fatal("PageHashes left a stale page uncached")
					}
				})
			}
		}
	}
}

// raceBuild is set under the race detector (race_test.go).
var raceBuild bool

// TestPageHashesAllocateNothingBelowTheSplit: a batch the capture path
// hashes on one processor allocates nothing, whatever its size.
func TestPageHashesAllocateNothingBelowTheSplit(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates")
	}
	as, _, pns := hashTwins(parallelHashPages-1, 0, 1)
	out := make([]PageHash, len(pns))
	allocs := testing.AllocsPerRun(20, func() {
		for _, pn := range pns {
			if p := as.pages.get(pn); p != nil {
				p.hashed = false
			}
		}
		as.PageHashes(pns, out)
	})
	if allocs != 0 {
		t.Fatalf("PageHashes of %d stale pages allocates %.0f objects, want 0", parallelHashPages-1, allocs)
	}
}

// BenchmarkPageHashes times hashing a capture's stale pages: the per-page
// PageHash loop the capture path ran before, and PageHashes, at a small
// capture (under the two-processor split), a delta4-sized one and a large
// one. Every iteration makes every page stale again first.
func BenchmarkPageHashes(b *testing.B) {
	for _, n := range []int{32, 368, 2048} {
		as, _, _ := hashTwins(n, 0, 1)
		pns := as.PageNumbers(false)
		out := make([]PageHash, len(pns))
		stale := func() {
			for _, pn := range pns {
				as.pages.get(pn).hashed = false
			}
		}
		b.Run(fmt.Sprintf("pages=%d/per-page", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n) * PageSize)
			for i := 0; i < b.N; i++ {
				stale()
				for j, pn := range pns {
					out[j] = as.PageHash(pn)
				}
			}
		})
		b.Run(fmt.Sprintf("pages=%d/batch", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n) * PageSize)
			for i := 0; i < b.N; i++ {
				stale()
				as.PageHashes(pns, out)
			}
		})
	}
}
