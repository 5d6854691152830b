package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ascr-ecx/eth/internal/journal"
)

// TestDoneSetLoadsOldFormatCheckpoints is the extraction regression:
// checkpoint files written by earlier ethbench builds (raw
// journal.Checkpoint JSON) must load into the shared DoneSet
// unchanged. The literal below is byte-for-byte what those builds
// wrote.
func TestDoneSetLoadsOldFormatCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.ckpt")
	old := `{"t":"2026-07-30T22:15:04.123456789Z","step":-1,"done":["table1","table2","fig8"],"detail":"last=fig8"}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDoneSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Has("table1") || !d.Has("table2") || !d.Has("fig8") || d.Has("fig9") {
		t.Fatal("membership wrong after old-format load")
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	// Order survives too: saved back, the old reader sees the same list.
	if err := d.Save(path, "resaved"); err != nil {
		t.Fatal(err)
	}
	cp, err := journal.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp.Done, []string{"table1", "table2", "fig8"}) {
		t.Fatalf("old-format checkpoint loaded as %v", cp.Done)
	}
}

// TestDoneSetRoundTrip proves Save writes a file journal.ReadCheckpoint
// (the old reader) still understands — the format is shared both ways.
func TestDoneSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	d := NewDoneSet()
	d.Add("fig10")
	d.Add("fig11")
	d.Add("fig10") // idempotent
	if err := d.Save(path, "last=fig11"); err != nil {
		t.Fatal(err)
	}
	cp, err := journal.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp.Done, []string{"fig10", "fig11"}) {
		t.Fatalf("old reader sees Done=%v", cp.Done)
	}
	if cp.Detail != "last=fig11" {
		t.Fatalf("detail = %q", cp.Detail)
	}
	if cp.Step != -1 {
		t.Fatalf("step = %d, want -1 (done sets are not step-scoped)", cp.Step)
	}

	d2, err := LoadDoneSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Has("fig10") || !d2.Has("fig11") || d2.Len() != 2 {
		t.Fatal("round-trip lost membership")
	}
}

// TestDoneSetMissingFileIsFresh: no checkpoint yet means an empty set,
// not an error.
func TestDoneSetMissingFileIsFresh(t *testing.T) {
	d, err := LoadDoneSet(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("fresh set has %d entries", d.Len())
	}
}

// TestDoneSetRejectsCorruptFile: a torn or corrupt ledger must fail
// loudly, never silently replay a sweep from scratch.
func TestDoneSetRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte(`{"done": [truncat`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDoneSet(path); err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}
}
