package fleet_test

// Replay is the one reading of the fleet journal: the table pins its
// fold case by case, and FuzzReplay, seeded with the table's journals,
// holds it to any bytes a crash or a hand edit could leave in
// fleet.jsonl. That a real scheduler's journal replays to its live
// Counts is asserted where the scheduler runs, in
// TestFleetCompletesSweep and TestFleetRetryLadder.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ascr-ecx/eth/internal/fleet"
	"github.com/ascr-ecx/eth/internal/journal"
)

// submitEv is the submit event a scheduler journals for sp.
func submitEv(sp fleet.Spec) journal.Event {
	raw, _ := json.Marshal(sp)
	return journal.Event{Type: journal.TypeSubmit, Rank: -1, Step: -1, Src: sp.ID, Detail: string(raw)}
}

// fleetEv is a scheduler lifecycle event for spec src.
func fleetEv(typ, src string, step int, errText string) journal.Event {
	return journal.Event{Type: typ, Rank: -1, Step: step, Src: src, Err: errText}
}

// writeJournal renders events as fleet.jsonl bytes.
func writeJournal(events []journal.Event) []byte {
	var buf bytes.Buffer
	for _, e := range events {
		raw, _ := json.Marshal(e)
		buf.Write(append(raw, '\n'))
	}
	return buf.Bytes()
}

// replayCase is one fleet.jsonl and what Replay must make of it.
type replayCase struct {
	name    string
	events  []journal.Event
	torn    string // appended unterminated, as a crash mid-write leaves it
	specs   []fleet.Spec
	done    []string
	quar    []fleet.Quarantine
	counts  fleet.Counts
	leases  int
	retried int
	fails   bool  // the replay must fail...
	wantErr error // ...with an error wrapping this, when set
}

// raw is the case's journal as the bytes on disk.
func (tc replayCase) raw() []byte { return append(writeJournal(tc.events), tc.torn...) }

func replayCases() []replayCase {
	a := fleet.Spec{ID: "a", Kind: fleet.KindRun, Args: []string{"-particles", "1000"}}
	b := fleet.Spec{ID: "b", Kind: fleet.KindExec, Args: []string{"/bin/false"}, Env: []string{"X=1"}, Retries: 1}
	worker := journal.Event{Type: journal.TypeRender, Rank: 0, Step: 3, Src: "a"}
	return []replayCase{
		{
			name:   "empty journal",
			counts: fleet.Counts{},
		},
		{
			name: "retries and drain requeues",
			events: []journal.Event{
				submitEv(a),
				fleetEv(journal.TypeLease, "a", 1, ""), worker,
				fleetEv(journal.TypeRequeue, "a", 1, "exit status 1"),
				fleetEv(journal.TypeLease, "a", 2, ""),
				fleetEv(journal.TypeRequeue, "a", 2, ""), // drained: no error, no budget spent
				fleetEv(journal.TypeResume, "", -1, ""),
				fleetEv(journal.TypeLease, "a", 2, ""),
				fleetEv(journal.TypeComplete, "a", 2, ""),
			},
			specs:   []fleet.Spec{a},
			done:    []string{"a"},
			counts:  fleet.Counts{Submitted: 1, Completed: 1, Retries: 1, Requeues: 2},
			leases:  3,
			retried: 1,
		},
		{
			name: "quarantine",
			events: []journal.Event{
				submitEv(a), submitEv(b),
				fleetEv(journal.TypeLease, "a", 1, ""), fleetEv(journal.TypeLease, "b", 1, ""),
				fleetEv(journal.TypeComplete, "a", 1, ""),
				fleetEv(journal.TypeRequeue, "b", 1, "exit status 1"),
				fleetEv(journal.TypeLease, "b", 2, ""),
				fleetEv(journal.TypeQuarantine, "b", 2, "exit status 1"),
			},
			specs:   []fleet.Spec{a, b},
			done:    []string{"a"},
			quar:    []fleet.Quarantine{{ID: "b", Attempts: 2, Err: "exit status 1"}},
			counts:  fleet.Counts{Submitted: 2, Completed: 1, Quarantined: 1, Retries: 1, Requeues: 1},
			leases:  3,
			retried: 1,
		},
		{
			// The scheduler died after the worker finished but before its
			// complete event was synced; the resumed fleet ran it again.
			name: "spec re-run after its complete was lost",
			events: []journal.Event{
				submitEv(a), submitEv(b),
				fleetEv(journal.TypeLease, "a", 1, ""), worker,
				fleetEv(journal.TypeResume, "", -1, ""),
				fleetEv(journal.TypeLease, "a", 1, ""),
				fleetEv(journal.TypeComplete, "a", 1, ""),
			},
			specs:  []fleet.Spec{a, b},
			done:   []string{"a"},
			counts: fleet.Counts{Submitted: 2, Queued: 1, Completed: 1},
			leases: 2,
		},
		{
			name: "terminal state is the first one",
			events: []journal.Event{
				submitEv(a),
				fleetEv(journal.TypeComplete, "a", 1, ""),
				fleetEv(journal.TypeComplete, "a", 1, ""),
				fleetEv(journal.TypeQuarantine, "a", 1, "late"),
			},
			specs:  []fleet.Spec{a},
			done:   []string{"a"},
			counts: fleet.Counts{Submitted: 1, Completed: 1},
		},
		{
			name: "torn final line",
			events: []journal.Event{
				submitEv(a), submitEv(b),
				fleetEv(journal.TypeComplete, "a", 1, ""),
			},
			torn:   `{"t":"2026-10-17T07:00:00Z","type":"complete","rank":-1,"step":1,"src":"b`,
			specs:  []fleet.Spec{a, b},
			done:   []string{"a"},
			counts: fleet.Counts{Submitted: 2, Queued: 1, Completed: 1},
		},
		{
			name: "submit whose spec does not decode",
			events: []journal.Event{
				{Type: journal.TypeSubmit, Rank: -1, Step: -1, Src: "a", Detail: "kind=run retries=2"},
			},
			fails:   true,
			wantErr: fleet.ErrBadSpec,
		},
		{
			name: "submit whose spec does not validate",
			events: []journal.Event{
				{Type: journal.TypeSubmit, Rank: -1, Step: -1, Src: "a", Detail: `{"id":"a","kind":"teleport"}`},
			},
			fails:   true,
			wantErr: fleet.ErrBadSpec,
		},
		{
			name:    "submit whose spec is another spec",
			events:  []journal.Event{{Type: journal.TypeSubmit, Rank: -1, Step: -1, Src: "b", Detail: submitEv(a).Detail}},
			fails:   true,
			wantErr: fleet.ErrBadSpec,
		},
		{
			name:    "spec submitted twice",
			events:  []journal.Event{submitEv(a), submitEv(a)},
			fails:   true,
			wantErr: fleet.ErrDuplicate,
		},
		{
			name:   "complete of a spec never submitted",
			events: []journal.Event{submitEv(a), fleetEv(journal.TypeComplete, "ghost", 1, "")},
			fails:  true,
		},
	}
}

func TestReplay(t *testing.T) {
	for _, tc := range replayCases() {
		t.Run(tc.name, func(t *testing.T) {
			events, err := journal.Read(bytes.NewReader(tc.raw()))
			if tc.torn == "" && err != nil || tc.torn != "" && !errors.Is(err, journal.ErrTornTail) {
				t.Fatalf("journal.Read: %v", err)
			}
			led, err := fleet.Replay(events)
			if tc.fails {
				if err == nil {
					t.Fatalf("Replay accepted it: %+v", led)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("Replay = %v, want it to wrap %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(led.Specs, tc.specs) || !reflect.DeepEqual(led.Done, tc.done) ||
				!reflect.DeepEqual(led.Quarantined, tc.quar) {
				t.Errorf("replayed specs %+v done %v quarantined %+v, want %+v %v %+v",
					led.Specs, led.Done, led.Quarantined, tc.specs, tc.done, tc.quar)
			}
			if led.Counts != tc.counts || led.Leases != tc.leases || led.Retried != tc.retried {
				t.Errorf("replayed counts %+v leases %d retried %d, want %+v %d %d",
					led.Counts, led.Leases, led.Retried, tc.counts, tc.leases, tc.retried)
			}
		})
	}
}

// TestResumeRejectsJournalWithoutSpecs: a fleet.jsonl whose submit
// events do not carry their spec (as builds before the spec-carrying
// submit wrote it) cannot rebuild the queue, so -resume refuses it with
// an ErrBadSpec-wrapped error instead of resuming an empty fleet.
func TestResumeRejectsJournalWithoutSpecs(t *testing.T) {
	dir := t.TempDir()
	old := writeJournal([]journal.Event{
		{Type: journal.TypeSubmit, Rank: -1, Step: -1, Src: "a", Detail: "kind=run retries=2"},
		fleetEv(journal.TypeComplete, "a", 1, ""),
	})
	if err := os.WriteFile(filepath.Join(dir, fleet.JournalFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := fleet.New(fleet.Config{Dir: dir, Resume: true})
	if !errors.Is(err, fleet.ErrBadSpec) {
		t.Fatalf("New(Resume) = %v, %v; want an error wrapping ErrBadSpec", s, err)
	}
}

// FuzzReplay feeds journal.Read and Replay any bytes as fleet.jsonl:
// they return an error or a ledger, and never panic. An accepted ledger
// is self-consistent: every spec validates, the completed and
// quarantined sets are disjoint subsets of the specs, and the tally
// adds up. The seeds are TestReplay's journals and three more.
func FuzzReplay(f *testing.F) {
	for _, tc := range replayCases() {
		f.Add(tc.raw())
	}
	f.Add(writeJournal([]journal.Event{submitEv(fleet.Spec{ID: "a", Kind: fleet.KindBench}), fleetEv(journal.TypeComplete, "a", 1, "")}))
	f.Add([]byte(`{"type":"submit","src":"a","detail":"{\"id\":\"a\",\"kind\":\"run\"}"}` + "\n" + `{"type":"quarantine","src":"a","ste`))
	f.Add([]byte(`{"type":"lease","src":"nobody"}` + "\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, _ := journal.Read(bytes.NewReader(raw))
		led, err := fleet.Replay(events)
		if err != nil {
			return
		}
		ids := map[string]bool{}
		for _, sp := range led.Specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("replayed spec %+v does not validate: %v", sp, err)
			}
			ids[sp.ID] = true
		}
		terminal := map[string]bool{}
		for _, id := range led.Done {
			if !ids[id] || terminal[id] {
				t.Fatalf("completed %q is unknown or repeated: %+v", id, led)
			}
			terminal[id] = true
		}
		for _, q := range led.Quarantined {
			if !ids[q.ID] || terminal[q.ID] {
				t.Fatalf("quarantined %q is unknown or already terminal: %+v", q.ID, led)
			}
			terminal[q.ID] = true
		}
		c := led.Counts
		if c.Submitted != len(led.Specs) || c.Completed+c.Quarantined+c.Queued != c.Submitted || c.Running != 0 {
			t.Fatalf("tally %+v does not add up over %d specs", c, len(led.Specs))
		}
	})
}
