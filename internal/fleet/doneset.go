package fleet

import (
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

// DoneSet is the completed-work-unit ledger shared by every sweep
// driver: ethbench's experiment checkpoint and the fleet scheduler's
// completed-spec set are the same idea, so they share this type. It
// wraps the journal.Checkpoint sidecar — the on-disk format is
// unchanged, so checkpoint files written by earlier ethbench builds
// load exactly as before — and adds the set operations sweeps need:
// membership, insertion without duplicates, and an atomic Save.
type DoneSet struct {
	cp journal.Checkpoint
}

// NewDoneSet returns an empty set.
func NewDoneSet() *DoneSet {
	return &DoneSet{cp: journal.Checkpoint{Step: -1}}
}

// LoadDoneSet reads the checkpoint at path. A missing file is a fresh
// start: an empty set and no error. Any other read or decode failure
// is returned, so a corrupt ledger never silently replays a sweep.
func LoadDoneSet(path string) (*DoneSet, error) {
	cp, err := journal.ReadCheckpoint(path)
	if errors.Is(err, os.ErrNotExist) {
		return NewDoneSet(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: loading done set: %w", err)
	}
	if cp.Step == 0 {
		cp.Step = -1 // done sets are never step-scoped
	}
	return &DoneSet{cp: cp}, nil
}

// Has reports whether id is recorded as completed.
func (d *DoneSet) Has(id string) bool { return d.cp.Has(id) }

// Add records id as completed; re-adding a known id is a no-op, so a
// resumed sweep that re-verifies a finished unit never double-counts.
func (d *DoneSet) Add(id string) {
	if d.cp.Has(id) {
		return
	}
	d.cp.Done = append(d.cp.Done, id)
}

// Len reports how many units are recorded as completed.
func (d *DoneSet) Len() int { return len(d.cp.Done) }

// Save atomically replaces the checkpoint at path with the current set,
// stamped with the given detail (for humans reading the sidecar). The
// write-temp/fsync/rename protocol means a crash mid-save leaves the
// previous ledger intact, never a torn one.
func (d *DoneSet) Save(path, detail string) error {
	cp := d.cp
	cp.Detail = detail
	cp.T = time.Time{} // restamp at write
	if err := journal.WriteCheckpoint(path, cp); err != nil {
		return fmt.Errorf("fleet: saving done set: %w", err)
	}
	return nil
}
