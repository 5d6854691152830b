package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIterations(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		for _, workers := range []int{0, 1, 3, 16} {
			hits := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestForGrainedRangesAreDisjointAndComplete(t *testing.T) {
	n := 1003
	hits := make([]int32, n)
	ForGrained(n, 4, 17, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForGrainedSingleWorkerSequential(t *testing.T) {
	n := 50
	var order []int
	ForGrained(n, 1, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("single worker should be in order; got order[%d]=%d", i, v)
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(data), 0, func(j int) { data[j] = float64(j) * 1.5 })
	}
}
