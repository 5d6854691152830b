// Package par is ETH's intra-node threading substrate — the stand-in for the
// Intel TBB layer the paper uses inside each MPI rank. It provides grained
// parallel-for loops whose worker count each pipeline stage pins, so that
// experiments can model "cores assigned to visualization" separately from
// "cores on the node".
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the process-wide default worker count
// (GOMAXPROCS), the equivalent of TBB's automatic task-arena size.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// panicBox captures the first panic raised by a set of worker goroutines
// so the coordinator can rethrow it after the workers are joined. Without
// it, a panic inside a worker kills the whole process from a goroutine
// with no caller context — and, worse for the harness, can deadlock a
// WaitGroup mid-sweep so the run wedges instead of failing loudly.
type panicBox struct {
	once sync.Once
	val  any
	set  bool
}

// capture is used as `defer pb.capture()` inside a worker; it records the
// first in-flight panic value and swallows it so sibling workers finish.
func (b *panicBox) capture() {
	if v := recover(); v != nil {
		b.once.Do(func() { b.val = v; b.set = true })
	}
}

// rethrow re-raises the captured panic (if any) on the calling goroutine.
// It must be called after the workers have been joined.
func (b *panicBox) rethrow() {
	if b.set {
		panic(b.val)
	}
}

// For runs body(i) for every i in [0, n) using up to workers goroutines.
// Iterations are dealt in contiguous grains to keep cache behaviour close
// to a static OpenMP/TBB schedule while still load balancing via work
// stealing from a shared atomic cursor. workers <= 0 selects
// DefaultWorkers(). The call returns only after every iteration completed.
func For(n, workers int, body func(i int)) {
	ForGrained(n, workers, grainFor(n, workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForGrained runs body(lo, hi) over disjoint half-open ranges that cover
// [0, n), each at most grain long. It is the building block for loops that
// want to amortize per-iteration setup (e.g. scanline renderers keeping a
// local span buffer). grain <= 0 selects a heuristic grain.
func ForGrained(n, workers, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if grain <= 0 {
		grain = grainFor(n, workers)
	}
	if workers == 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var pb panicBox
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer pb.capture()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
}

// grainFor picks a grain that gives each worker several grains for load
// balance without making the atomic cursor a bottleneck.
func grainFor(n, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	g := n / (workers * 8)
	if g < 1 {
		g = 1
	}
	return g
}
