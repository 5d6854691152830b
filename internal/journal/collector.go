package journal

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Ingestion telemetry, exposed on /metrics by any obs server sharing
// the default registry.
var (
	ctrIngested  = telemetry.Default.Counter("ingest.events")
	ctrTornTails = telemetry.Default.Counter("ingest.torn_tails")
)

// Collector merges many journal files into one sink Writer: one
// Follower per source tails its file across writer restarts, and every
// drained event is written into the sink tagged with its source name.
// The fleet scheduler uses it to merge its workers' journals into
// fleet.jsonl. Sources are registered with Watch (and released with
// Unwatch once their writer is done); Run polls every source until the
// context ends, and DrainOnce is the synchronous single pass. The
// collector syncs nothing: a sink owner that needs the merged events
// durable calls Sink.Sync after a drain.
//
// A writer killed mid-event leaves a torn final line; when its
// restarted incarnation repairs the tail (Append), the source's
// Follower reports ErrTornTail exactly once, and the collector writes
// one in-band error event for it, so the discontinuity is recorded in
// the merged journal and no complete event is lost.
type Collector struct {
	sink *Writer
	poll time.Duration

	mu      sync.Mutex
	sources map[string]*source // guarded by mu
	order   []string           // guarded by mu; stable drain order
}

// source is one tailed journal file. Its mutex serializes drains: the
// poll loop and an Unwatch final drain may race on the same follower,
// and Follower is not concurrency-safe.
type source struct {
	name string

	mu   sync.Mutex
	f    *Follower
	dead bool // a hard parse error ended this tail; journaled in-band
}

// NewCollector returns a collector writing into sink, polling each
// source every poll interval (default 25ms).
func NewCollector(sink *Writer, poll time.Duration) *Collector {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	return &Collector{sink: sink, poll: poll, sources: map[string]*source{}}
}

// Watch registers the journal at path under the given source name.
// Idempotent: re-watching a known name keeps the existing follower and
// its offset, so a writer's restart does not re-ingest its history.
func (c *Collector) Watch(name, path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sources[name]; ok {
		return
	}
	c.sources[name] = &source{name: name, f: NewFollower(path)}
	c.order = append(c.order, name)
}

// Unwatch drains the source one final time and removes it, bounding
// collector state across long sweeps. When it returns, every complete
// event the source held is in the sink.
func (c *Collector) Unwatch(name string) {
	c.mu.Lock()
	s := c.sources[name]
	c.mu.Unlock()
	if s == nil {
		return
	}
	c.drainSource(s)
	c.mu.Lock()
	delete(c.sources, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// DrainOnce runs one pass over every source, writing into the sink
// everything complete that has been appended since the previous pass.
// Returns the number of source events ingested.
func (c *Collector) DrainOnce() int {
	c.mu.Lock()
	names := append([]string(nil), c.order...)
	c.mu.Unlock()
	total := 0
	for _, name := range names {
		c.mu.Lock()
		s := c.sources[name]
		c.mu.Unlock()
		if s != nil {
			total += c.drainSource(s)
		}
	}
	return total
}

// drainSource writes one source's new events into the sink. A torn
// tail (the writer was killed mid-event and its restart repaired the
// line) is surfaced exactly once per repair as an in-band error event
// carrying the source tag; the follower then resumes at the repaired
// tail with no complete event lost. Any other parse error is real
// corruption: it is journaled in-band and the source stops being
// tailed, so one bad journal cannot wedge the others.
func (c *Collector) drainSource(s *source) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0
	}
	events, err := s.f.Drain()
	for _, ev := range events {
		if ev.Src == "" {
			ev.Src = s.name
		}
		c.sink.Emit(ev)
	}
	ctrIngested.Add(int64(len(events)))
	switch {
	case err == nil:
	case errors.Is(err, ErrTornTail):
		ctrTornTails.Inc()
		c.sink.Emit(Event{
			Type: TypeError, Rank: -1, Step: -1,
			Src: s.name, Err: err.Error(),
			Detail: "torn tail repaired by restarted writer; resuming at repaired offset",
		})
	default:
		s.dead = true
		c.sink.Emit(Event{
			Type: TypeError, Rank: -1, Step: -1,
			Src: s.name, Err: err.Error(),
			Detail: "journal tail unreadable; source dropped from ingestion",
		})
	}
	return len(events)
}

// Run polls every watched source until ctx ends, then runs one final
// drain so events written during the last poll interval are not lost.
// Always returns nil; per-source failures are journaled in-band.
func (c *Collector) Run(ctx context.Context) error {
	tick := time.NewTicker(c.poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			c.DrainOnce()
			return nil
		case <-tick.C:
			c.DrainOnce()
		}
	}
}
