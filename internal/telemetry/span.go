package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the log2 histogram: bucket b holds
// values v with bits.Len64(v) == b, i.e. 2^(b-1) <= v < 2^b (bucket 0
// holds v <= 0). 64 buckets cover the full int64 range, so nanosecond
// latencies from single digits to hours all land in a real bucket.
const histBuckets = 64

// Histogram is a lock-free log2-bucketed distribution. Observations cost
// three atomic adds plus a bounded CAS loop; quantiles are approximate
// (upper bucket bound, clamped to the observed max), which is plenty for
// the p50/p95/p99 latency reporting the harness needs.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram(name string) *Histogram { return &Histogram{name: name} }

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a value to its log2 bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an approximate q-quantile (q in [0, 1]): the upper
// bound of the log2 bucket holding the target observation, clamped to the
// observed maximum. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			ub := int64(math.MaxInt64)
			if b < 63 {
				ub = (int64(1) << uint(b)) - 1
			}
			if mx := h.max.Load(); mx < ub {
				ub = mx
			}
			return ub
		}
	}
	return h.max.Load()
}

// BucketBound returns the inclusive upper bound of log2 bucket b:
// bucket 0 holds v <= 0, bucket b (0 < b < 63) holds v <= 2^b - 1, and
// the final bucket is unbounded (math.MaxInt64). Exposition code pairs
// these bounds with CumulativeBuckets to render the distribution.
func BucketBound(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= histBuckets-1 {
		return math.MaxInt64
	}
	return (int64(1) << uint(b)) - 1
}

// CumulativeBuckets fills dst with the running total of observations per
// log2 bucket (dst[b] counts observations <= BucketBound(b)) and returns
// the number of buckets written: the index after the last non-empty
// bucket, so callers can render only the occupied prefix. dst must have
// space for NumBuckets entries. The walk is lock-free — concurrent
// observers may land between bucket loads, so the counts are a live
// approximation, exactly like every other scrape of a running system.
func (h *Histogram) CumulativeBuckets(dst []int64) int {
	var cum int64
	used := 0
	for b := 0; b < histBuckets; b++ {
		n := h.buckets[b].Load()
		cum += n
		dst[b] = cum
		if n > 0 {
			used = b + 1
		}
	}
	return used
}

// NumBuckets is the bucket count CumulativeBuckets requires of dst.
const NumBuckets = histBuckets

// reset zeroes the histogram (registry lock held by caller).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// SpanMetric aggregates completed spans under one name: invocation count,
// total wall-clock time, and a latency distribution. It is the per-phase
// aggregation the harness reads back after a run.
type SpanMetric struct {
	hist *Histogram
}

// Name returns the span metric's registered name.
func (m *SpanMetric) Name() string { return m.hist.name }

// Observe records one completed span of the given duration.
func (m *SpanMetric) Observe(d time.Duration) { m.hist.ObserveDuration(d) }

// Count returns the number of completed spans.
func (m *SpanMetric) Count() int64 { return m.hist.Count() }

// Total returns the summed wall-clock time across completed spans.
func (m *SpanMetric) Total() time.Duration { return time.Duration(m.hist.Sum()) }

// Quantile returns the approximate q-quantile span duration.
func (m *SpanMetric) Quantile(q float64) time.Duration {
	return time.Duration(m.hist.Quantile(q))
}

// Span is one in-flight timed region, created by Registry.StartSpan. Ending
// it records the elapsed time into the registry's SpanMetric for its name.
// Spans nest: Child opens a sub-region whose metric name is the parent's
// name plus ".child", so aggregated totals keep the call structure.
type Span struct {
	r     *Registry
	name  string
	start time.Time
}

// StartSpan opens a timed region under the given metric name.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{r: r, name: name, start: time.Now()}
}

// ObserveSpan records a pre-measured duration under the given span name —
// the zero-allocation path for hot loops that manage their own clocks.
func (r *Registry) ObserveSpan(name string, d time.Duration) {
	r.Span(name).Observe(d)
}

// Child opens a nested span named parent.name, so nesting stays inside
// the dotted metric-name contract.
func (s *Span) Child(name string) *Span {
	return &Span{r: s.r, name: s.name + "." + name, start: time.Now()}
}

// End closes the span, records its duration, and returns it.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	s.r.ObserveSpan(s.name, d)
	return d
}

// SpanStat is one row of a registry's span report.
type SpanStat struct {
	Name          string
	Count         int64
	Total         time.Duration
	P50, P95, P99 time.Duration
}

// SpanStats reports every span metric with at least one observation,
// sorted by name.
func (r *Registry) SpanStats() []SpanStat {
	r.mu.RLock()
	metrics := make([]*SpanMetric, 0, len(r.spans))
	for _, m := range r.spans {
		metrics = append(metrics, m)
	}
	r.mu.RUnlock()
	out := make([]SpanStat, 0, len(metrics))
	for _, m := range metrics {
		if m.Count() == 0 {
			continue
		}
		out = append(out, SpanStat{
			Name:  m.Name(),
			Count: m.Count(),
			Total: m.Total(),
			P50:   m.Quantile(0.50),
			P95:   m.Quantile(0.95),
			P99:   m.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
