//go:build unix

package journal

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestOneWriterPerJournalFile pins the concurrency contract Create and
// Append enforce with an exclusive flock: one live writer per journal
// file. A second open — from this process or another — fails with
// ErrLocked instead of interleaving two event streams in one file.
// Many-writer fan-in goes through a Collector, where each producer owns
// its own file and the merged journal has the one Writer.
func TestOneWriterPerJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")

	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw.Emit(Event{Type: TypeRender, Rank: 0, Step: 0})

	if _, err := Append(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("Append over a live writer = %v, want ErrLocked", err)
	}
	if _, err := Create(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("Create over a live writer = %v, want ErrLocked", err)
	}

	// Close releases the lock; the next writer takes over and the first
	// writer's events are still there (Append does not truncate).
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jw2, err := Append(path)
	if err != nil {
		t.Fatalf("Append after Close = %v, want success", err)
	}
	jw2.Emit(Event{Type: TypeRender, Rank: 0, Step: 1})
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("journal has %d events after writer handoff, want 2", len(events))
	}
}

// TestCreateTruncatesUnderLock proves Create only truncates after the
// lock is held: a failed Create against a live writer leaves the
// existing journal intact.
func TestCreateTruncatesUnderLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	jw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw.Emit(Event{Type: TypeRender, Rank: 0, Step: 0})
	if err := jw.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Create = %v, want ErrLocked", err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("rejected Create clobbered the journal: %d events, want 1", len(events))
	}
}
