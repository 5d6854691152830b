package ingest

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

// TestBatcherFlushOnCount proves the count trigger: FlushCount events
// arrive in the sink without waiting for the interval.
func TestBatcherFlushOnCount(t *testing.T) {
	sink := journal.New()
	b := NewBatcher(Config{Sink: sink, FlushCount: 4, FlushEvery: time.Hour})
	defer b.Close()
	for i := 0; i < 4; i++ {
		if err := b.Put(journal.Event{Type: journal.TypeRender, Step: i, Rank: -1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.Len() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("count-triggered flush never happened: %d/4 events in sink", sink.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherFlushOnInterval proves the time trigger: a batch smaller
// than FlushCount still lands within a few intervals.
func TestBatcherFlushOnInterval(t *testing.T) {
	sink := journal.New()
	b := NewBatcher(Config{Sink: sink, FlushCount: 1 << 20, FlushEvery: 5 * time.Millisecond})
	defer b.Close()
	if err := b.Put(journal.Event{Type: journal.TypeRender, Step: 0, Rank: -1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.Len() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("interval-triggered flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherCloseDrains proves no enqueued event is lost at shutdown.
func TestBatcherCloseDrains(t *testing.T) {
	sink := journal.New()
	b := NewBatcher(Config{Sink: sink, FlushCount: 1 << 20, FlushEvery: time.Hour, Queue: 256})
	for i := 0; i < 100; i++ {
		if err := b.Put(journal.Event{Type: journal.TypeRender, Step: i, Rank: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Len(); got != 100 {
		t.Fatalf("sink has %d events after Close, want 100", got)
	}
	if err := b.Put(journal.Event{Type: journal.TypeRender}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

// blockingWriter is a sink backend that blocks every Write until
// released — the stalled-consumer fixture.
type blockingWriter struct {
	mu      sync.Mutex
	release chan struct{}
	wrote   int
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	w.wrote += len(p)
	w.mu.Unlock()
	return len(p), nil
}

var _ io.Writer = (*blockingWriter)(nil)

// TestBatcherBackpressureBounded is the boundedness proof: with the
// sink wedged, producers fill the queue and then BLOCK — the queue
// never grows past its bound — and once the sink unwedges, every event
// lands, prefixed by an in-band overflow event recording that
// producers were blocked.
func TestBatcherBackpressureBounded(t *testing.T) {
	const queue, extra = 8, 5
	bw := &blockingWriter{release: make(chan struct{})}
	sink := journal.NewWriter(bw)
	b := NewBatcher(Config{Sink: sink, FlushCount: 2, FlushEvery: time.Hour, Queue: queue})

	// Fill the queue plus the consumer's in-hand batch, then launch
	// producers that must block. The consumer pulls up to FlushCount
	// events before wedging on the first sink write, so allow that
	// drain too.
	posted := make(chan int, queue+extra+4)
	var wg sync.WaitGroup
	for i := 0; i < queue+extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Put(journal.Event{Type: journal.TypeRender, Step: i, Rank: -1}); err != nil {
				t.Errorf("Put(%d): %v", i, err)
			}
			posted <- i
		}(i)
	}

	// Let producers saturate: after a settling period, at least one
	// producer must still be blocked (bounded queue + wedged sink can
	// hold at most queue + one flush batch).
	time.Sleep(200 * time.Millisecond)
	if got := len(posted); got >= queue+extra {
		t.Fatalf("all %d producers returned against a wedged sink; queue is not applying backpressure", got)
	}

	// Unwedge the sink; everything must drain.
	close(bw.release)
	wg.Wait()
	b.Close()

	events := sink.Events()
	var renders, overflows int
	for _, ev := range events {
		switch ev.Type {
		case journal.TypeRender:
			renders++
		case journal.TypeOverflow:
			overflows++
			if ev.Elements <= 0 {
				t.Errorf("overflow event carries no blocked count: %+v", ev)
			}
		}
	}
	if renders != queue+extra {
		t.Errorf("sink saw %d events, want %d (none lost under backpressure)", renders, queue+extra)
	}
	if overflows == 0 {
		t.Error("producer backpressure left no in-band overflow event")
	}
}
