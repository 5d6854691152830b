package journal

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/telemetry"
)

// emitSteps appends n render events starting at step from to a live
// worker journal.
func emitSteps(t *testing.T, jw *Writer, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		jw.Emit(Event{Type: TypeRender, Rank: 0, Step: i})
	}
	if err := jw.Sync(); err != nil {
		t.Fatal(err)
	}
}

// tearTail simulates kill -9 mid-write: a partial, unterminated JSON
// line lands at the end of the journal file, exactly as an interrupted
// Emit leaves it. The journal's own writer holds the flock, but the
// lock is advisory — a raw append models the torn write without
// fighting it.
func tearTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"render","st`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorTornTailExactlyOnce is the follower-driven ingestion
// contract across a worker SIGKILL + restart: the collector tails a
// worker journal, the worker dies mid-write leaving a torn tail, the
// restarted worker repairs the tail via Append and continues, and
// ingestion must surface exactly one torn-tail event, resume at the
// repaired offset, and lose no complete event.
func TestCollectorTornTailExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	worker := filepath.Join(dir, "worker.jsonl")
	sink := New()
	c := NewCollector(sink, time.Millisecond)
	c.Watch("spec-a", worker)

	// First incarnation: three complete steps, then death mid-write.
	jw, err := Append(worker)
	if err != nil {
		t.Fatal(err)
	}
	emitSteps(t, jw, 0, 3)
	if got := c.DrainOnce(); got != 3 {
		t.Fatalf("pre-crash drain ingested %d events, want 3", got)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	tearTail(t, worker)

	// The follower sees the torn bytes but must not consume them: an
	// unterminated line is indistinguishable from an in-flight write.
	if got := c.DrainOnce(); got != 0 {
		t.Fatalf("drain consumed %d events from a torn tail, want 0", got)
	}

	// Restart: Append repairs the tail and the second incarnation
	// immediately emits new events — the worst-case race, where the file
	// regrows past the old fragment before the collector polls again.
	// The follower still detects the repair (the bytes where the
	// fragment sat changed) and the new events arrive in the same drain.
	jw2, err := Append(worker)
	if err != nil {
		t.Fatal(err)
	}
	emitSteps(t, jw2, 3, 2)
	c.DrainOnce() // one torn-tail event + the new incarnation's events
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}
	c.DrainOnce()

	var steps []int
	torn := 0
	for _, ev := range sink.Events() {
		switch ev.Type {
		case TypeRender:
			if ev.Src != "spec-a" {
				t.Errorf("ingested event lost its source tag: %+v", ev)
			}
			steps = append(steps, ev.Step)
		case TypeError:
			torn++
			if ev.Src != "spec-a" {
				t.Errorf("torn-tail event not attributed to its source: %+v", ev)
			}
		}
	}
	if torn != 1 {
		t.Errorf("torn-tail surfaced %d times, want exactly 1", torn)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(steps) != len(want) {
		t.Fatalf("ingested steps %v, want %v (no complete event lost)", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("ingested steps %v, want %v", steps, want)
		}
	}
}

// lineSignal is a sink backend that closes done once n lines (events)
// have been written through it. Writer serializes its writes, so the
// count needs no lock of its own.
type lineSignal struct {
	n    int
	done chan struct{}
}

func (w *lineSignal) Write(p []byte) (int, error) {
	if w.n--; w.n == 0 {
		close(w.done)
	}
	return len(p), nil
}

// TestCollectorRunTailsLiveJournal drives the poll loop end to end: a
// live writer appends while Run tails, and everything arrives tagged.
func TestCollectorRunTailsLiveJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.jsonl")
	const n = 25
	sig := &lineSignal{n: n, done: make(chan struct{})}
	sink := NewWriter(sig)
	c := NewCollector(sink, time.Millisecond)
	c.Watch("w0", path)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = c.Run(ctx) }()

	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	emitSteps(t, jw, 0, n)
	jw.Close()

	select {
	case <-sig.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("live tail delivered %d/%d events", sink.Len(), n)
	}
	cancel()
	<-runDone
	for _, ev := range sink.Events() {
		if ev.Type != TypeRender || ev.Src != "w0" {
			t.Errorf("sink holds %+v, want only w0's render events", ev)
		}
	}
}

// TestCollectorDeadSourceDoesNotWedge proves one corrupt worker
// journal (malformed, newline-terminated line — not a torn tail) is
// dropped from ingestion with an in-band event instead of stopping
// the fleet's other sources.
func TestCollectorDeadSourceDoesNotWedge(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	good := filepath.Join(dir, "good.jsonl")
	if err := os.WriteFile(bad, []byte("this is not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink := New()
	c := NewCollector(sink, time.Millisecond)
	c.Watch("bad", bad)
	c.Watch("good", good)

	jw, err := Create(good)
	if err != nil {
		t.Fatal(err)
	}
	emitSteps(t, jw, 0, 3)
	jw.Close()

	c.DrainOnce()
	c.DrainOnce() // the dead source must stay dead, not re-report

	var goodEvents, deadReports int
	for _, ev := range sink.Events() {
		if ev.Type == TypeRender && ev.Src == "good" {
			goodEvents++
		}
		if ev.Type == TypeError && ev.Src == "bad" {
			deadReports++
		}
	}
	if goodEvents != 3 {
		t.Errorf("healthy source delivered %d/3 events alongside a corrupt one", goodEvents)
	}
	if deadReports != 1 {
		t.Errorf("corrupt source reported %d times, want exactly once", deadReports)
	}
}

// TestCollectorUnwatchFinalDrain proves Unwatch pulls the last events
// into the sink before releasing the source.
func TestCollectorUnwatchFinalDrain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.jsonl")
	sink := New()
	c := NewCollector(sink, time.Millisecond)
	c.Watch("w", path)

	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	emitSteps(t, jw, 0, 2)
	jw.Close()

	c.Unwatch("w")
	if got := sink.Len(); got != 2 {
		t.Fatalf("Unwatch drained %d events, want 2", got)
	}
	if got := c.DrainOnce(); got != 0 {
		t.Fatalf("unwatched source still drains (%d events)", got)
	}
}

// A Writer observes a phase event into its phase.<p> histogram only when
// it timed the event itself: a local timed event moves the histograms,
// while an instant that carries a phase (a resume) and an event a
// Collector merged from another journal, whose own Writer observed it,
// do not.
func TestPhaseHistogramsSkipMergedAndInstants(t *testing.T) {
	observed := func() (count, sum int64) {
		for _, p := range Phases {
			h := telemetry.Default.Histogram("phase." + p)
			count, sum = count+h.Count(), sum+h.Sum()
		}
		return count, sum
	}
	path := filepath.Join(t.TempDir(), "w.jsonl")
	src, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	count, sum := observed()
	src.Emit(Event{Type: TypeRender, Phase: PhaseRender, Step: 0, DurNS: 1500})
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if c, s := observed(); c != count+1 || s != sum+1500 {
		t.Fatalf("a local timed event moved the phase histograms by %d events, %d ns; want 1, 1500", c-count, s-sum)
	}
	sink := New()
	c := NewCollector(sink, time.Millisecond)
	c.Watch("w", path)
	if got := c.DrainOnce(); got != 1 {
		t.Fatalf("DrainOnce merged %d events, want 1", got)
	}
	sink.Emit(Event{Type: TypeResume, Phase: PhaseTransport, Step: 1})
	if got := sink.Phases()[PhaseRender]; got != 1500 {
		t.Fatalf("merged render time = %v, want 1.5µs", got)
	}
	if c, s := observed(); c != count+1 || s != sum+1500 {
		t.Errorf("a merged event and an instant moved the phase histograms by %d events, %d ns", c-count-1, s-sum-1500)
	}
}
