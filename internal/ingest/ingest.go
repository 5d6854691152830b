// Package ingest is the fan-in path between many concurrent journal
// producers and one merged, durable journal. A fleet of worker
// processes (internal/fleet) each writes its own journal file — the
// one-writer-per-journal-file contract journal.ErrLocked enforces —
// and ingestion merges those streams into the fleet journal through a
// Batcher: events queue in a bounded channel and flush to the sink on
// a count or interval trigger, or at a producer's Flush barrier, with
// one fsync per batch instead of per event.
//
// The batcher is provably bounded. A stalled sink (slow disk, blocked
// writer) fills the queue and then blocks producers — backpressure,
// never unbounded growth — and the pressure itself is observable: the
// blocked-producer episodes are journaled in-band as overflow events
// at the next flush and counted on /metrics, so a sweep that outruns
// its disk is visible in the same journal it is writing.
//
// The Collector half drives batching from worker journal files: one
// journal.Follower per source tails the file across worker restarts,
// tagging every event with its source before it enters the batcher. A
// worker that is SIGKILLed mid-write leaves a torn final line; when
// its restarted incarnation repairs the tail (journal.Append), the
// follower surfaces exactly one journal.ErrTornTail, which the
// collector converts into one in-band error event — the discontinuity
// is recorded in the merged journal, and no complete event is lost.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Ingestion telemetry, exposed on /metrics by any obs server sharing
// the default registry.
var (
	ctrEvents    = telemetry.Default.Counter("ingest.events")
	ctrFlushes   = telemetry.Default.Counter("ingest.flushes")
	ctrBlocked   = telemetry.Default.Counter("ingest.backpressure_waits")
	ctrTornTails = telemetry.Default.Counter("ingest.torn_tails")
	gaugeDepth   = telemetry.Default.Gauge("ingest.queue_depth")
)

// ErrClosed is wrapped by Put after Close: the batcher no longer
// accepts events, so the producer knows its event was not recorded.
var ErrClosed = errors.New("ingest: batcher closed")

// Config shapes a Batcher.
type Config struct {
	// Sink receives every batched event. The batcher is the sink
	// journal's write path for ingested traffic; rare control-plane
	// events may Emit to the same Writer directly (it is
	// concurrency-safe), but high-volume producers must go through Put
	// so flushes and fsyncs amortize.
	Sink *journal.Writer
	// FlushCount flushes a batch when this many events are pending.
	// Default 64.
	FlushCount int
	// FlushEvery flushes whatever is pending on this interval, bounding
	// how stale the merged journal can run behind live workers.
	// Default 100ms.
	FlushEvery time.Duration
	// Queue bounds the in-flight event queue; a full queue blocks
	// producers (backpressure). Default 1024.
	Queue int
}

func (c Config) flushCount() int {
	if c.FlushCount <= 0 {
		return 64
	}
	return c.FlushCount
}

func (c Config) flushEvery() time.Duration {
	if c.FlushEvery <= 0 {
		return 100 * time.Millisecond
	}
	return c.FlushEvery
}

func (c Config) queue() int {
	if c.Queue <= 0 {
		return 1024
	}
	return c.Queue
}

// Batcher merges events from many producers into one sink journal with
// count/interval-triggered flushes and bounded-queue backpressure.
// Create with NewBatcher, feed with Put, stop with Close.
type Batcher struct {
	cfg      Config
	ch       chan journal.Event
	flushReq chan chan struct{}
	closing  chan struct{}
	done     chan struct{}
	once     sync.Once
	// blocked counts producer backpressure episodes since the last
	// flush reported them in-band.
	blocked atomic.Int64
}

// NewBatcher starts the flush loop and returns the batcher.
func NewBatcher(cfg Config) *Batcher {
	b := &Batcher{
		cfg:      cfg,
		ch:       make(chan journal.Event, cfg.queue()),
		flushReq: make(chan chan struct{}),
		closing:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	//lint:ignore nakedgo flush loop lifecycle is owned by Close, which joins via b.done
	go b.loop()
	return b
}

// Put enqueues one event for the next flush. When the queue is full it
// blocks until the flush loop drains space — the backpressure contract:
// a stalled sink slows producers down instead of growing memory. The
// wait is counted (ingest.backpressure_waits) and reported in-band as
// an overflow event at the next flush. Returns ErrClosed (wrapped)
// once Close has begun.
func (b *Batcher) Put(ev journal.Event) error {
	select {
	case <-b.closing:
		return fmt.Errorf("ingest: event from %q not recorded: %w", ev.Src, ErrClosed)
	default:
	}
	select {
	case b.ch <- ev:
		return nil
	default:
	}
	// Queue full: this producer now waits on the consumer. The episode
	// is observable both live (counter) and post-hoc (the flush loop
	// journals it in-band).
	ctrBlocked.Inc()
	b.blocked.Add(1)
	select {
	case b.ch <- ev:
		return nil
	case <-b.closing:
		return fmt.Errorf("ingest: event from %q not recorded: %w", ev.Src, ErrClosed)
	}
}

// Flush is the durability barrier: it returns once every event Put
// before the call has been written to the sink and synced, with the
// sink's first error. An event that must be on disk before its
// producer goes on (the fleet's submit, complete and quarantine
// records) is Put and then Flushed, so it still lands after everything
// queued ahead of it.
func (b *Batcher) Flush() error {
	flushed := make(chan struct{})
	select {
	case b.flushReq <- flushed:
		<-flushed
	case <-b.closing:
		<-b.done // Close's final drain flushes everything queued
	}
	return b.cfg.Sink.Err()
}

// Close stops intake, drains the queue, flushes the final batch, and
// returns the sink's first write error, if any. Idempotent.
func (b *Batcher) Close() error {
	b.once.Do(func() { close(b.closing) })
	<-b.done
	return b.cfg.Sink.Err()
}

// loop is the single consumer: it owns batching, in-band overflow
// reporting, and the per-batch sink sync.
func (b *Batcher) loop() {
	defer close(b.done)
	tick := time.NewTicker(b.cfg.flushEvery())
	defer tick.Stop()
	pending := make([]journal.Event, 0, b.cfg.flushCount())
	for {
		select {
		case ev := <-b.ch:
			pending = append(pending, ev)
			if len(pending) >= b.cfg.flushCount() {
				b.flush(&pending)
			}
		case <-tick.C:
			b.flush(&pending)
		case flushed := <-b.flushReq:
			b.drainQueued(&pending)
			b.flush(&pending)
			close(flushed)
		case <-b.closing:
			b.drainQueued(&pending)
			b.flush(&pending)
			return
		}
	}
}

// drainQueued moves everything currently buffered in the channel into
// the pending batch without blocking.
func (b *Batcher) drainQueued(pending *[]journal.Event) {
	for {
		select {
		case ev := <-b.ch:
			*pending = append(*pending, ev)
		default:
			return
		}
	}
}

// flush writes the pending batch to the sink with one sync, prefixed by
// an in-band overflow event when producers were blocked since the last
// flush.
func (b *Batcher) flush(pending *[]journal.Event) {
	gaugeDepth.Set(int64(len(b.ch)))
	if blocked := b.blocked.Swap(0); blocked > 0 {
		b.cfg.Sink.Emit(journal.Event{
			Type: journal.TypeOverflow, Rank: -1, Step: -1,
			Elements: int(blocked),
			Detail:   fmt.Sprintf("ingest queue full (%d events); producers blocked %d times", b.cfg.queue(), blocked),
		})
	}
	if len(*pending) == 0 {
		return
	}
	for _, ev := range *pending {
		b.cfg.Sink.Emit(ev)
	}
	b.cfg.Sink.Sync()
	ctrEvents.Add(int64(len(*pending)))
	ctrFlushes.Inc()
	*pending = (*pending)[:0]
}

// Collector tails worker journal files and feeds their events — tagged
// with the source name — through a Batcher. Sources are registered
// with Watch (and released with Unwatch once their worker is done);
// Run polls every source until the context ends, and DrainOnce is the
// synchronous single pass shutdown paths use to pull final events
// before closing the batcher.
type Collector struct {
	b    *Batcher
	poll time.Duration

	mu      sync.Mutex
	sources map[string]*source // guarded by mu
	order   []string           // guarded by mu; stable drain order
}

// source is one tailed journal file. Its mutex serializes drains: the
// poll loop and an Unwatch final drain may race on the same follower,
// and journal.Follower is not concurrency-safe.
type source struct {
	name string

	mu   sync.Mutex
	f    *journal.Follower
	dead bool // a hard parse error ended this tail; journaled in-band
}

// NewCollector returns a collector feeding b, polling each source
// every poll interval (default 25ms).
func NewCollector(b *Batcher, poll time.Duration) *Collector {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	return &Collector{b: b, poll: poll, sources: map[string]*source{}}
}

// Watch registers the journal at path under the given source name.
// Idempotent: re-watching a known name keeps the existing follower and
// its offset, so a worker's restart does not re-ingest its history.
func (c *Collector) Watch(name, path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sources[name]; ok {
		return
	}
	c.sources[name] = &source{name: name, f: journal.NewFollower(path)}
	c.order = append(c.order, name)
}

// Unwatch drains the source one final time and removes it, bounding
// collector state across long sweeps.
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

// DrainOnce runs one pass over every source, ingesting everything
// complete that has been appended since the previous pass. Returns the
// number of events ingested.
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

// drainSource pulls one source's new events into the batcher. A torn
// tail (the worker was SIGKILLed mid-write and its restart repaired
// the line) is surfaced exactly once per repair as an in-band error
// event carrying the source tag; the follower then resumes at the
// repaired tail with no complete event lost. Any other parse error is
// real corruption: it is journaled in-band and the source stops being
// tailed, so one bad worker journal cannot wedge fleet ingestion.
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
		if perr := c.b.Put(ev); perr != nil {
			return len(events)
		}
	}
	switch {
	case err == nil:
	case errors.Is(err, journal.ErrTornTail):
		ctrTornTails.Inc()
		c.b.Put(journal.Event{
			Type: journal.TypeError, Rank: -1, Step: -1,
			Src: s.name, Err: err.Error(),
			Detail: "torn tail repaired by restarted writer; resuming at repaired offset",
		})
	default:
		s.dead = true
		c.b.Put(journal.Event{
			Type: journal.TypeError, Rank: -1, Step: -1,
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
