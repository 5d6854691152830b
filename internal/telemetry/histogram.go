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

// Since records the time elapsed since t0. It is built for a deferred
// call, `defer h.Since(time.Now())`: the argument is evaluated when the
// defer statement runs, so the region is timed from there to whichever
// return ends it.
func (h *Histogram) Since(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }

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

// reset zeroes the histogram (registry lock held by caller).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// SpanStat is one row of a registry's duration report: one histogram's
// count, total and quantiles.
type SpanStat struct {
	Name          string
	Count         int64
	Total         time.Duration
	P50, P95, P99 time.Duration
}

// SpanStats reports every histogram with at least one observation,
// sorted by name.
func (r *Registry) SpanStats() []SpanStat {
	var out []SpanStat
	r.EachHistogram(func(h *Histogram) {
		if n := h.Count(); n > 0 {
			out = append(out, SpanStat{
				Name:  h.Name(),
				Count: n,
				Total: time.Duration(h.Sum()),
				P50:   time.Duration(h.Quantile(0.50)),
				P95:   time.Duration(h.Quantile(0.95)),
				P99:   time.Duration(h.Quantile(0.99)),
			})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
