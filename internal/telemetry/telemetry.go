// Package telemetry is ETH's low-overhead instrumentation registry, the
// stand-in for the TACC Stats hardware-counter collection the paper uses
// to analyze results (§V-A). Components register named metrics and update
// them from hot loops with atomic operations; the harness snapshots the
// registry per experiment phase and reports deltas.
//
// Three metric kinds are provided:
//
//   - Counter: monotonically increasing value (rays cast, bytes sent).
//   - Gauge: last-value metric (current queue depth, active pairs).
//   - Histogram: log2-bucketed distribution of durations in nanoseconds
//     with approximate quantiles. A pipeline stage's histogram is fed
//     by the journal (journal.Writer.Emit observes each timed phase
//     event into phase.<name>), so each stage is timed once; the few
//     durations no phase event covers resolve their *Histogram once and
//     record with ObserveDuration, or with `defer h.Since(time.Now())`
//     when the region has early returns.
//
// All metric updates are lock-free atomic operations; registry lookups
// take a read lock only (writes happen once per name), so hot loops that
// cache the returned pointer — or even re-look it up — do not serialize.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a single monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric: unlike a Counter it may move in either
// direction, and snapshots report its instantaneous value.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds a set of named metrics. The zero value is ready to use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// Default is the process-wide registry.
var Default = &Registry{}

// getOrCreate returns the metric named name in *m, creating it with mk
// if needed. Safe for concurrent use; the returned pointer is stable.
// Lookups of an existing metric take only a read lock, so hot loops do
// not serialize.
func getOrCreate[M any](r *Registry, m *map[string]*M, name string, mk func(string) *M) *M {
	r.mu.RLock()
	v := (*m)[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if *m == nil {
		*m = map[string]*M{}
	}
	if v = (*m)[name]; v == nil {
		v = mk(name)
		(*m)[name] = v
	}
	return v
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return getOrCreate(r, &r.counters, name, func(n string) *Counter { return &Counter{name: n} })
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return getOrCreate(r, &r.gauges, name, func(n string) *Gauge { return &Gauge{name: n} })
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	return getOrCreate(r, &r.hists, name, newHistogram)
}

// Snapshot returns a copy of all counter values at this instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	for name, c := range r.counters {
		s[name] = c.Value()
	}
	return s
}

// each calls fn once per metric in *m, in no particular order. The
// registry's read lock is released before fn runs, so fn may itself use
// the registry; new registrations during the walk may or may not be
// visited.
func each[M any](r *Registry, m *map[string]*M, fn func(*M)) {
	r.mu.RLock()
	ms := make([]*M, 0, len(*m))
	for _, v := range *m {
		ms = append(ms, v)
	}
	r.mu.RUnlock()
	for _, v := range ms {
		fn(v)
	}
}

// EachCounter calls fn once per registered counter (see each).
// Exposition code (internal/obs) builds /metrics from these walks.
func (r *Registry) EachCounter(fn func(*Counter)) { each(r, &r.counters, fn) }

// EachGauge calls fn once per registered gauge (see each).
func (r *Registry) EachGauge(fn func(*Gauge)) { each(r, &r.gauges, fn) }

// EachHistogram calls fn once per registered histogram (see each).
func (r *Registry) EachHistogram(fn func(*Histogram)) { each(r, &r.hists, fn) }

// Reset zeroes every metric (for test isolation and per-run phases).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot is a point-in-time view of counter values.
type Snapshot map[string]int64

// Delta returns s - earlier per counter. Counters absent from earlier are
// treated as zero; counters present in earlier but absent from s (e.g.
// after a registry swap) are emitted with negative deltas so the result
// accounts for every counter either side saw.
func (s Snapshot) Delta(earlier Snapshot) Snapshot {
	out := Snapshot{}
	for name, v := range s {
		out[name] = v - earlier[name]
	}
	for name, v := range earlier {
		if _, ok := s[name]; !ok {
			out[name] = -v
		}
	}
	return out
}

// String renders the snapshot sorted by name.
func (s Snapshot) String() string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, s[n])
	}
	return out
}
