package fleet

import (
	"path/filepath"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

// CheckpointFile is the fleet checkpoint's name under the fleet dir.
const CheckpointFile = "fleet.ckpt"

// Quarantine records a spec the retry ladder gave up on: its attempt
// count, the final failure, and where the last journal tail was
// preserved for post-mortem.
type Quarantine struct {
	ID       string `json:"id"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
	TailPath string `json:"tail,omitempty"`
}

// Checkpoint is the fleet's crash-safe state: every submitted spec,
// the completed set, and the quarantined set. It is written with
// journal.WriteJSON's write-temp/fsync/rename protocol on
// every submit/complete/quarantine transition, so a scheduler killed
// at any instant — SIGKILL included — resumes with an exact picture of
// what remains: specs minus done minus quarantined is the queue. The
// invariant a finished fleet must satisfy is the conservation law
//
//	completed + quarantined == submitted
//
// and ethinfo's fleet audit checks it from the journal side.
type Checkpoint struct {
	T           time.Time    `json:"t"`
	Specs       []Spec       `json:"specs"`
	Done        []string     `json:"done,omitempty"`
	Quarantined []Quarantine `json:"quarantined,omitempty"`
}

// WriteCheckpoint atomically replaces the fleet checkpoint in dir.
func WriteCheckpoint(dir string, cp Checkpoint) error {
	if cp.T.IsZero() {
		cp.T = time.Now()
	}
	return journal.WriteJSON("fleet", filepath.Join(dir, CheckpointFile), cp)
}

// ReadCheckpoint loads the fleet checkpoint from dir. A missing file
// is an os.ErrNotExist-wrapped error so -resume on a fresh dir can be
// distinguished from a corrupt checkpoint.
func ReadCheckpoint(dir string) (Checkpoint, error) {
	var cp Checkpoint
	if err := journal.ReadJSON("fleet", filepath.Join(dir, CheckpointFile), &cp); err != nil {
		return Checkpoint{}, err
	}
	return cp, nil
}
