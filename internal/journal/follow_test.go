package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFollowerDrain checks the basic tail contract: complete lines are
// consumed in order, an unterminated final line stays pending until its
// newline lands, and a missing file is silent.
func TestFollowerDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f := NewFollower(path)

	events, err := f.Drain()
	if err != nil || len(events) != 0 {
		t.Fatalf("missing file: events=%v err=%v, want none", events, err)
	}

	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw.Emit(Event{Type: TypeRunStart, Rank: -1, Step: -1})
	jw.Emit(Event{Type: TypeRender, Rank: 0, Step: 0})

	events, err = f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != TypeRunStart || events[1].Type != TypeRender {
		t.Fatalf("drained %v, want run_start+render", events)
	}

	// An in-flight (unterminated) event must stay pending...
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.WriteString(`{"type":"render","rank":0,`); err != nil {
		t.Fatal(err)
	}
	events, err = f.Drain()
	if err != nil || len(events) != 0 {
		t.Fatalf("partial line: events=%v err=%v, want none pending", events, err)
	}
	// ...and be delivered once the writer finishes the line.
	if _, err := file.WriteString("\"step\":1}\n"); err != nil {
		t.Fatal(err)
	}
	file.Close()
	events, err = f.Drain()
	if err != nil || len(events) != 1 || events[0].Step != 1 {
		t.Fatalf("completed line: events=%v err=%v, want the step-1 render", events, err)
	}
	jw.Close()
}

// TestFollowerOffsetResume checks that a later Drain continues exactly
// where the previous one stopped, also after the writer has closed.
func TestFollowerOffsetResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		jw.Emit(Event{Type: TypeRender, Rank: 0, Step: s})
	}

	f := NewFollower(path)
	events, err := f.Drain()
	if err != nil || len(events) != 5 {
		t.Fatalf("first drain: %d events err=%v, want 5", len(events), err)
	}

	for s := 5; s < 8; s++ {
		jw.Emit(Event{Type: TypeRender, Rank: 0, Step: s})
	}
	jw.Close()

	events, err = f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Step != 5 || events[2].Step != 7 {
		t.Fatalf("resumed drain = %v, want steps 5..7", events)
	}
}

// TestFollowerConcurrentWriter tails a journal while a goroutine is
// appending and must see every event exactly once, in order.
func TestFollowerConcurrentWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := 0; s < total; s++ {
			jw.Emit(Event{Type: TypeRender, Rank: 0, Step: s})
		}
	}()

	f := NewFollower(path)
	var got []Event
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < total {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d events", len(got), total)
		}
		events, err := f.Drain()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, events...)
	}
	<-done
	jw.Close()
	for i, ev := range got {
		if ev.Step != i {
			t.Fatalf("event %d has step %d, want %d (reordered or duplicated)", i, ev.Step, i)
		}
	}
}

// TestFollowerTornTailMidFollow simulates the crash-and-restart shape:
// the writer dies mid-event leaving a torn tail the follower is waiting
// on, then a restarted writer's Append repairs (truncates) it. The
// follower must notice the repair, report ErrTornTail once, and resume
// cleanly with the restarted writer's events; a file that shrinks below
// what the follower consumed is reported the same way.
func TestFollowerTornTailMidFollow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw.Emit(Event{Type: TypeRender, Rank: 0, Step: 0})
	jw.Close()

	// Crash signature: a torn, unterminated final line.
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.WriteString(`{"type":"render","rank":0,"st`); err != nil {
		t.Fatal(err)
	}
	file.Close()

	f := NewFollower(path)
	events, err := f.Drain()
	if err != nil || len(events) != 1 {
		t.Fatalf("pre-repair drain: events=%v err=%v, want just step 0", events, err)
	}

	// The restarted writer repairs the tail, cutting away the fragment
	// the follower holds as pending.
	jw2, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(); !errors.Is(err, ErrTornTail) {
		t.Fatalf("repaired-fragment drain err = %v, want ErrTornTail", err)
	}
	jw2.Emit(Event{Type: TypeRender, Rank: 0, Step: 1})
	events, err = f.Drain()
	if err != nil || len(events) != 1 || events[0].Step != 1 {
		t.Fatalf("post-repair drain: events=%v err=%v, want step 1", events, err)
	}

	// A file shorter than the consumed offset surfaces ErrTornTail and
	// resets the follower to the new end.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(); !errors.Is(err, ErrTornTail) {
		t.Fatalf("shrunken-file drain err = %v, want ErrTornTail", err)
	}
	jw2.Emit(Event{Type: TypeRender, Rank: 0, Step: 2})
	events, err = f.Drain()
	if err != nil || len(events) != 1 || events[0].Step != 2 {
		t.Fatalf("post-torn-tail drain: events=%v err=%v, want step 2", events, err)
	}
	jw2.Close()
}
