package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Checkpoint is the crash-safe progress sidecar written next to a run
// journal. It records how far a run or sweep actually got — the first
// step not yet completed, the experiment IDs already finished — so a
// restarted harness resumes instead of replaying. Checkpoints are
// written with WriteCheckpoint's write-temp/fsync/rename protocol, so a
// crash at any instant leaves either the previous checkpoint or the new
// one, never a torn file.
type Checkpoint struct {
	// T is the write time (stamped by WriteCheckpoint when zero).
	T time.Time `json:"t"`
	// Step is the first step not yet completed (a viz cursor, a run's
	// progress watermark). -1 when the checkpoint is not step-scoped.
	Step int `json:"step"`
	// Done lists completed work-unit IDs (ethbench experiment names).
	Done []string `json:"done,omitempty"`
	// Detail is a short human-readable qualifier ("complete", the run
	// configuration, ...).
	Detail string `json:"detail,omitempty"`
}

// Has reports whether id is recorded as completed.
func (c Checkpoint) Has(id string) bool {
	for _, d := range c.Done {
		if d == id {
			return true
		}
	}
	return false
}

// WriteCheckpoint atomically replaces the checkpoint at path with cp
// as one JSON line: the bytes are written to a temporary file in the
// same directory, fsynced, and renamed over path. Readers (and crashes)
// therefore always observe either the previous checkpoint or the new
// one, never a torn file.
func WriteCheckpoint(path string, cp Checkpoint) error {
	if cp.T.IsZero() {
		cp.T = time.Now()
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("journal: encoding checkpoint: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: writing checkpoint %s: %w", path, err)
	}
	tmp := f.Name()
	if _, err = f.Write(append(raw, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// ReadCheckpoint loads the checkpoint at path. A missing file is an
// os.ErrNotExist-wrapped error, so resumable callers can treat "no
// checkpoint yet" as a fresh start with errors.Is.
func ReadCheckpoint(path string) (Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("journal: reading checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("journal: decoding checkpoint %s: %w", path, err)
	}
	return cp, nil
}
