package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestGaugeBasics(t *testing.T) {
	var r Registry
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("value = %d", g.Value())
	}
	if g.Name() != "depth" {
		t.Errorf("name = %q", g.Name())
	}
	if r.Gauge("depth") != g {
		t.Error("gauge identity not stable")
	}
	r.Reset()
	if g.Value() != 0 {
		t.Error("reset did not zero gauge")
	}
}

func TestHistogramBasics(t *testing.T) {
	var r Registry
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 1106 {
		t.Errorf("sum = %d", h.Sum())
	}
	if h.max.Load() != 1000 {
		t.Errorf("max = %d", h.max.Load())
	}
	// p100 must be clamped to the observed max, not the bucket bound.
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want 1000", q)
	}
	// The median observation is 3; its bucket [2,4) has upper bound 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if got := h.Quantile(0); got <= 0 {
		t.Errorf("p0 = %d", got)
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	var r Registry
	h := r.Histogram("empty")
	if h.Quantile(0.5) != 0 || h.max.Load() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(42)
	r.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.max.Load() != 0 {
		t.Error("reset did not clear histogram")
	}
	if h.Quantile(0.99) != 0 {
		t.Error("reset histogram quantile nonzero")
	}
}

func TestHistogramExtremes(t *testing.T) {
	var r Registry
	h := r.Histogram("ext")
	h.Observe(-5) // bucket 0
	h.Observe(math.MaxInt64)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(1.0); q != math.MaxInt64 {
		t.Errorf("p100 = %d", q)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	var r Registry
	h := r.Histogram("render")
	start := time.Now()
	func() {
		defer h.Since(time.Now())
		time.Sleep(2 * time.Millisecond)
	}()
	outer := time.Since(start)
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
	if d := time.Duration(h.Sum()); d < 2*time.Millisecond || d > outer {
		t.Errorf("recorded %v, want within [2ms, %v]", d, outer)
	}
	if h.Quantile(0.5) <= 0 {
		t.Error("median duration missing")
	}
}

// TestSpanNesting checks the nesting the dotted names describe: a
// deferred Since inside another's region records both, the inner one on
// every path out, early return included, and the outer total encloses
// the inner.
func TestSpanNesting(t *testing.T) {
	var r Registry
	outer, inner := r.Histogram("step"), r.Histogram("step.render")
	func() {
		defer outer.Since(time.Now())
		for i := 0; i < 3; i++ {
			func() {
				defer inner.Since(time.Now())
				if i == 1 {
					return
				}
				time.Sleep(time.Millisecond)
			}()
		}
	}()
	if outer.Count() != 1 || inner.Count() != 3 {
		t.Errorf("counts = %d, %d; want 1, 3", outer.Count(), inner.Count())
	}
	if outer.Sum() < inner.Sum() {
		t.Error("outer total < inner total")
	}
}

func TestObserveSpanAndStats(t *testing.T) {
	var r Registry
	r.Histogram("a").ObserveDuration(10 * time.Millisecond)
	r.Histogram("a").ObserveDuration(20 * time.Millisecond)
	r.Histogram("b").ObserveDuration(time.Millisecond)
	r.Histogram("never") // registered but unobserved: must not appear
	stats := r.SpanStats()
	if len(stats) != 2 {
		t.Fatalf("stats rows = %d, want 2", len(stats))
	}
	if stats[0].Name != "a" || stats[1].Name != "b" {
		t.Errorf("stats not sorted: %v", stats)
	}
	if stats[0].Count != 2 || stats[0].Total != 30*time.Millisecond {
		t.Errorf("a: count %d total %v", stats[0].Count, stats[0].Total)
	}
	if stats[0].P95 < stats[0].P50 {
		t.Error("p95 < p50")
	}
}

func TestDeltaReportsVanishedCounters(t *testing.T) {
	earlier := Snapshot{"kept": 3, "gone": 9}
	later := Snapshot{"kept": 5, "new": 2}
	d := later.Delta(earlier)
	if d["kept"] != 2 || d["new"] != 2 {
		t.Errorf("delta = %v", d)
	}
	// A counter present earlier but missing now (post-Reset registry swap)
	// must surface as a negative delta, not silently vanish.
	if got, ok := d["gone"]; !ok || got != -9 {
		t.Errorf("vanished counter delta = %d (present %v), want -9", got, ok)
	}
}

func TestConcurrentMixedMetrics(t *testing.T) {
	var r Registry
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if r.Counter("c").Value() != workers*200 {
		t.Errorf("counter = %d", r.Counter("c").Value())
	}
	if r.Histogram("h").Count() != workers*200 {
		t.Errorf("histogram count = %d", r.Histogram("h").Count())
	}
}

// BenchmarkRegistryCounter proves hot-loop lookups do not serialize: the
// read path takes only an RLock, so parallel goroutines looking up the
// same counter scale instead of convoying on a global mutex.
func BenchmarkRegistryCounter(b *testing.B) {
	var r Registry
	r.Counter("hot") // pre-create: benchmark the lookup fast path
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Counter("hot").Inc()
		}
	})
}

// BenchmarkHistogramObserve measures the hot-loop observation cost.
func BenchmarkHistogramObserve(b *testing.B) {
	var r Registry
	h := r.Histogram("hot")
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}

// TestEachMetric checks the registry walks visit every registered metric.
func TestEachMetric(t *testing.T) {
	var r Registry
	r.Counter("a").Inc()
	r.Counter("b").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(1)
	names := map[string]bool{}
	r.EachCounter(func(c *Counter) { names["c:"+c.Name()] = true })
	r.EachGauge(func(g *Gauge) { names["g:"+g.Name()] = true })
	r.EachHistogram(func(h *Histogram) { names["h:"+h.Name()] = true })
	for _, want := range []string{"c:a", "c:b", "g:g", "h:h"} {
		if !names[want] {
			t.Errorf("walk missed %s (got %v)", want, names)
		}
	}
}
