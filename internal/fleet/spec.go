package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// Spec kinds: which harness binary an experiment runs under.
const (
	// KindRun invokes the single-shot harness (ethrun) with the spec's
	// arguments plus fleet-managed -trace/-resume/-out wiring.
	KindRun = "run"
	// KindBench invokes the evaluation harness (ethbench -only <id>) for
	// one named experiment, with fleet-managed -trace/-resume/-csv wiring.
	KindBench = "bench"
	// KindExec invokes Args[0] directly — the escape hatch for custom
	// workers and the chaos suite's helper processes. The worker finds
	// its fleet-assigned journal and artifact paths in the
	// ETH_FLEET_JOURNAL and ETH_FLEET_ARTIFACTS environment variables.
	KindExec = "exec"
)

// ErrBadSpec is wrapped by every spec validation failure.
var ErrBadSpec = errors.New("fleet: invalid spec")

// Spec is one experiment the fleet owns: an ID, the harness kind that
// runs it, and its arguments. Specs arrive over the HTTP API or from a
// sweep file, and each submit event in the fleet journal carries its
// spec as JSON (Replay reads it back), so the whole type must
// round-trip through JSON.
type Spec struct {
	// ID names the experiment. It doubles as the spec's directory name
	// under the fleet dir and the Src tag on every journal event the
	// spec's workers produce, so it is restricted to [a-zA-Z0-9._-].
	ID string `json:"id"`
	// Kind selects the worker binary: KindRun, KindBench, or KindExec.
	Kind string `json:"kind"`
	// Args are appended to the worker command line (for KindExec,
	// Args[0] is the binary itself).
	Args []string `json:"args,omitempty"`
	// Env entries are appended to the worker environment.
	Env []string `json:"env,omitempty"`
	// Retries is this spec's retry budget: how many times a failed
	// attempt is requeued before the spec quarantines. 0 inherits the
	// fleet default; -1 means no retries (the first failure
	// quarantines).
	Retries int `json:"retries,omitempty"`
}

// retryBudget resolves the effective budget against the fleet default.
func (s Spec) retryBudget(fleetDefault int) int {
	switch {
	case s.Retries < 0:
		return 0
	case s.Retries == 0:
		return fleetDefault
	default:
		return s.Retries
	}
}

// Validate checks the spec is runnable before it enters the queue, so
// a malformed submission is rejected at the API boundary instead of
// burning its retry budget on exec failures.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("spec has no id: %w", ErrBadSpec)
	}
	for _, r := range s.ID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("spec id %q: character %q not in [a-zA-Z0-9._-]: %w", s.ID, r, ErrBadSpec)
		}
	}
	if strings.HasPrefix(s.ID, ".") {
		return fmt.Errorf("spec id %q may not start with a dot: %w", s.ID, ErrBadSpec)
	}
	switch s.Kind {
	case KindRun, KindBench:
	case KindExec:
		if len(s.Args) == 0 {
			return fmt.Errorf("spec %s: kind exec needs Args[0] as the binary: %w", s.ID, ErrBadSpec)
		}
	default:
		return fmt.Errorf("spec %s: unknown kind %q (want run, bench, or exec): %w", s.ID, s.Kind, ErrBadSpec)
	}
	if s.Retries < -1 {
		return fmt.Errorf("spec %s: retries %d (want >= -1): %w", s.ID, s.Retries, ErrBadSpec)
	}
	return nil
}

// LoadSweep reads a sweep file: a JSON array of specs, submitted in
// order. Every spec is validated and IDs must be unique — a sweep with
// any bad entry is rejected whole, so a partial sweep never starts.
func LoadSweep(path string) ([]Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading sweep: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(raw, &specs); err != nil {
		return nil, fmt.Errorf("fleet: decoding sweep %s: %w", path, err)
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: sweep %s entry %d: %w", path, i, err)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("fleet: sweep %s entry %d: duplicate id %q: %w", path, i, s.ID, ErrBadSpec)
		}
		seen[s.ID] = true
	}
	return specs, nil
}
