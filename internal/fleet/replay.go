package fleet

import (
	"encoding/json"
	"fmt"

	"github.com/ascr-ecx/eth/internal/journal"
)

// Quarantine records a spec the retry ladder gave up on: its attempt
// count, the final failure, and where the last journal tail was
// preserved for post-mortem.
type Quarantine struct {
	ID       string `json:"id"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
	TailPath string `json:"tail,omitempty"`
}

// Ledger is the fleet state a merged journal records, as Replay folds
// it. Outstanding specs — submitted, neither completed nor quarantined —
// are Counts.Queued; nothing replays as running.
type Ledger struct {
	// Specs lists every submitted spec in submission order.
	Specs []Spec
	// Done lists the completed spec IDs in completion order.
	Done []string
	// Quarantined lists the quarantined specs in quarantine order, with
	// attempts and final error (TailPath is not journaled).
	Quarantined []Quarantine
	// Counts is the conservation-law tally over unique spec IDs;
	// Requeues counts requeue events and Retries those after a failed
	// attempt.
	Counts Counts
	// Leases counts attempts started; Retried counts the specs
	// requeued at least once.
	Leases, Retried int
}

// Replay folds a fleet journal (fleet.jsonl) into the state it
// records. It is the fleet's one reading of its ledger: a resuming
// scheduler and ethinfo's fleet audit both go through it.
//
// A submit event carries its spec as JSON in Detail; a spec that does
// not decode or validate, or whose ID differs from the event's Src,
// fails the replay with an ErrBadSpec-wrapped error, and a second
// submit of one ID with ErrDuplicate. A lease, requeue, complete or
// quarantine event for an ID never submitted is corruption too. The
// first complete or quarantine of a spec is its terminal state; later
// ones change nothing. Events of any other type (the workers' own
// traffic, which ingestion merges into the same journal) are skipped.
func Replay(events []journal.Event) (Ledger, error) {
	var l Ledger
	status := map[string]string{}
	retried := map[string]bool{}
	for i, ev := range events {
		switch ev.Type {
		case journal.TypeSubmit:
			var sp Spec
			if err := json.Unmarshal([]byte(ev.Detail), &sp); err != nil {
				return Ledger{}, fmt.Errorf("fleet: journal event %d: submit of %q: %w: %w", i, ev.Src, err, ErrBadSpec)
			}
			if err := sp.Validate(); err != nil {
				return Ledger{}, fmt.Errorf("fleet: journal event %d: %w", i, err)
			}
			if sp.ID != ev.Src {
				return Ledger{}, fmt.Errorf("fleet: journal event %d: submit of %q carries spec %q: %w", i, ev.Src, sp.ID, ErrBadSpec)
			}
			if status[sp.ID] != "" {
				return Ledger{}, fmt.Errorf("fleet: journal event %d: spec %s: %w", i, sp.ID, ErrDuplicate)
			}
			status[sp.ID] = StatusQueued
			l.Specs = append(l.Specs, sp)
		case journal.TypeLease, journal.TypeRequeue, journal.TypeComplete, journal.TypeQuarantine:
			st := status[ev.Src]
			if st == "" {
				return Ledger{}, fmt.Errorf("fleet: journal event %d: %s of spec %q, which was never submitted", i, ev.Type, ev.Src)
			}
			switch {
			case ev.Type == journal.TypeLease:
				l.Leases++
			case ev.Type == journal.TypeRequeue:
				l.Counts.Requeues++
				if ev.Err != "" { // a failed attempt; drain requeues carry no error
					l.Counts.Retries++
				}
				retried[ev.Src] = true
			case st != StatusQueued: // already terminal
			case ev.Type == journal.TypeComplete:
				status[ev.Src] = StatusDone
				l.Done = append(l.Done, ev.Src)
			default:
				status[ev.Src] = StatusQuarantined
				l.Quarantined = append(l.Quarantined, Quarantine{ID: ev.Src, Attempts: ev.Step, Err: ev.Err})
			}
		}
	}
	l.Retried = len(retried)
	l.Counts.Submitted = len(l.Specs)
	l.Counts.Completed = len(l.Done)
	l.Counts.Quarantined = len(l.Quarantined)
	l.Counts.Queued = l.Counts.Submitted - l.Counts.Completed - l.Counts.Quarantined
	return l, nil
}
