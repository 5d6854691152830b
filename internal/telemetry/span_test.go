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
	if got := r.Gauges()["depth"]; got != 5 {
		t.Errorf("Gauges() = %d", got)
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
	if h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
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
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(42)
	r.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
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
	if h.Min() != -5 {
		t.Errorf("min = %d", h.Min())
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	var r Registry
	sp := r.StartSpan("render")
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < 2*time.Millisecond {
		t.Errorf("span duration %v too short", d)
	}
	m := r.Span("render")
	if m.Count() != 1 {
		t.Errorf("count = %d", m.Count())
	}
	if m.Total() != d {
		t.Errorf("total %v != recorded %v", m.Total(), d)
	}
	if m.Quantile(0.5) <= 0 {
		t.Error("median span duration missing")
	}
}

func TestSpanNesting(t *testing.T) {
	var r Registry
	parent := r.StartSpan("step")
	child := parent.Child("render")
	grand := child.Child("bvh")
	if grand.Name() != "step.render.bvh" {
		t.Errorf("nested name = %q", grand.Name())
	}
	if grand.Parent() != child || child.Parent() != parent || parent.Parent() != nil {
		t.Error("parent links wrong")
	}
	grand.End()
	child.End()
	parent.End()
	for _, name := range []string{"step", "step.render", "step.render.bvh"} {
		if r.Span(name).Count() != 1 {
			t.Errorf("span %s not recorded", name)
		}
	}
	// Parent wall-clock encloses the child's.
	if r.Span("step").Total() < r.Span("step.render").Total() {
		t.Error("parent total < child total")
	}
}

func TestObserveSpanAndStats(t *testing.T) {
	var r Registry
	r.ObserveSpan("a", 10*time.Millisecond)
	r.ObserveSpan("a", 20*time.Millisecond)
	r.ObserveSpan("b", time.Millisecond)
	r.Span("never") // registered but unobserved: must not appear
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
				r.ObserveSpan("s", time.Duration(i))
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
	if r.Span("s").Count() != workers*200 {
		t.Errorf("span count = %d", r.Span("s").Count())
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

// TestCumulativeBuckets checks the exposition walk: cumulative counts
// pair with BucketBound, and the returned length covers exactly the
// occupied prefix.
func TestCumulativeBuckets(t *testing.T) {
	var r Registry
	h := r.Histogram("cb")
	for _, v := range []int64{0, 1, 1, 3, 100} {
		h.Observe(v)
	}
	var buckets [NumBuckets]int64
	used := h.CumulativeBuckets(buckets[:])
	// 100 has bits.Len64 = 7, so the last occupied bucket is 7.
	if used != 8 {
		t.Fatalf("used = %d, want 8", used)
	}
	// Bucket 0 (v <= 0) holds one observation; bucket 1 (v <= 1) adds two.
	if buckets[0] != 1 || buckets[1] != 3 {
		t.Errorf("buckets[0,1] = %d,%d, want 1,3", buckets[0], buckets[1])
	}
	if buckets[used-1] != h.Count() {
		t.Errorf("last occupied bucket = %d, want count %d", buckets[used-1], h.Count())
	}
	if BucketBound(0) != 0 || BucketBound(1) != 1 || BucketBound(2) != 3 {
		t.Errorf("bounds = %d,%d,%d, want 0,1,3", BucketBound(0), BucketBound(1), BucketBound(2))
	}
	if BucketBound(NumBuckets-1) != math.MaxInt64 || BucketBound(NumBuckets+5) != math.MaxInt64 {
		t.Error("final bucket bound should be MaxInt64")
	}
}

// TestEachMetric checks the registry walks visit every registered metric.
func TestEachMetric(t *testing.T) {
	var r Registry
	r.Counter("a").Inc()
	r.Counter("b").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(1)
	r.Span("s").Observe(time.Millisecond)
	names := map[string]bool{}
	r.EachCounter(func(c *Counter) { names["c:"+c.Name()] = true })
	r.EachGauge(func(g *Gauge) { names["g:"+g.Name()] = true })
	r.EachHistogram(func(h *Histogram) { names["h:"+h.Name()] = true })
	r.EachSpan(func(s *SpanMetric) { names["s:"+s.Name()] = true })
	for _, want := range []string{"c:a", "c:b", "g:g", "h:h", "s:s"} {
		if !names[want] {
			t.Errorf("walk missed %s (got %v)", want, names)
		}
	}
}
