// Package journal is ETH's structured run journal: an append-only JSONL
// record of what a run actually did — one event per phase transition,
// dataset generation, sampling decision, wire transfer, render, composite,
// and error. A Writer keeps only the newest events in memory, for live
// readers, sums every phase-attributed event's duration as it arrives,
// and observes each locally timed phase event into that phase's
// telemetry histogram (phase.<name>), so /metrics and the journal report
// one duration per stage; with a trace file configured every event also
// streams to disk as it happens, one JSON object per line, so a crashed
// run still leaves an audit trail up to the failure. The Reader half
// replays a journal after the fact, and Breakdown reconstructs from it
// the per-phase wall-clock split the harness reports — the
// instrumentation analog of the paper's TACC Stats + power meter
// collection (§V-A), and the visibility SIM-SITU and ISAAC argue
// in-situ exploration needs.
//
// Follower tails a journal file while another process writes it, and
// Collector builds on it to merge many such files into one Writer, each
// event tagged with its source: the fleet scheduler merges its workers'
// journals into fleet.jsonl that way.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Event types. A journal line's "type" field says what happened; timed
// events additionally carry a "phase" so Breakdown can aggregate them.
const (
	// TypeRunStart opens a run; Detail describes the configuration.
	TypeRunStart = "run_start"
	// TypeRunEnd closes a run; DurNS is the run's wall-clock time.
	TypeRunEnd = "run_end"
	// TypePhase marks a phase transition (pair start/end, mode switches).
	TypePhase = "phase"
	// TypeDataset records a dataset generation or fetch.
	TypeDataset = "dataset"
	// TypeSample records a sampling decision (method, ratio, kept count),
	// or a sim proxy applying its connection's field request ("sim
	// applied step=<s> fields=<name> kept=<kept>/<fields>", once per
	// connection).
	TypeSample = "sample"
	// TypeSerialize records dataset encoding for the wire.
	TypeSerialize = "serialize"
	// TypeTransfer records one wire transfer (Detail: "send" or "recv").
	TypeTransfer = "transfer"
	// TypeRender records one rendered time step.
	TypeRender = "render"
	// TypeAnalysis records one in-situ analysis operation.
	TypeAnalysis = "analysis"
	// TypeComposite records an image composite across ranks.
	TypeComposite = "composite"
	// TypeError records a failure; Err carries the message.
	TypeError = "error"
	// TypeRetry records a recoverable transport failure being retried
	// (reconnect + resume); Detail carries the classified cause.
	TypeRetry = "retry"
	// TypeSkip records a step abandoned under the degradation policy.
	TypeSkip = "skip"
	// TypeResume records a connection resuming at a step after reconnect,
	// including a duplicate re-sent step being re-acked without rendering,
	// or a fleet scheduler resuming from its journal.
	TypeResume = "resume"
	// TypeRestart records a supervised proxy being torn down and
	// restarted; Detail carries "role=<role> attempt=<n>/<max> cause=<c>".
	TypeRestart = "restart"
	// TypeShutdown records a graceful shutdown decision (signal received,
	// drain started, or a supervisor declining to restart after one).
	TypeShutdown = "shutdown"
	// TypeCheckpoint records durable progress: a viz rank or a viewer
	// has completed Step, and the journal is fsynced behind it. Cursor
	// folds these into the step a restarted process resumes at.
	TypeCheckpoint = "checkpoint"
	// TypeOverflow records a bounded queue dropping its oldest events
	// (drop-oldest backpressure): a live-tail subscriber falling behind,
	// or a Writer's kept tail when Events heads the list with one.
	// Elements carries the dropped count and Detail identifies the queue.
	TypeOverflow = "overflow"
	// TypeSteer records steering state moving through the system: a hub
	// receiving a control message from a subscriber ("recv ..."), a viz
	// proxy applying camera/isovalue axes at a step boundary ("viz
	// applied ..."), a viz proxy forwarding simulation axes over the
	// control channel ("forward ..."), or a sim proxy applying
	// sampling-ratio/codec axes ("sim applied ..."). The applied events
	// carry the step the change took effect at, which is what makes a
	// steered run replayable.
	TypeSteer = "steer"
	// TypeSubscribe records hub subscriber membership: Detail starts
	// with "join", "leave", or "reject" and identifies the subscriber
	// and its starting cursor.
	TypeSubscribe = "subscribe"
	// TypeSubmit records an experiment spec entering a fleet queue;
	// Src is the spec ID and Detail the spec as JSON, which is all a
	// resuming scheduler needs to queue it again.
	TypeSubmit = "submit"
	// TypeLease records a fleet spec being leased to a worker slot for
	// one attempt; Detail carries "spec=<id> worker=<n> attempt=<k>".
	TypeLease = "lease"
	// TypeRequeue records a lease being revoked — the worker crashed,
	// stalled, or exited nonzero — and the spec going back on the queue
	// with its retry budget decremented.
	TypeRequeue = "requeue"
	// TypeQuarantine records a spec exhausting its retry budget and
	// leaving the queue permanently; Err carries the final failure and
	// Detail points at the preserved journal tail.
	TypeQuarantine = "quarantine"
	// TypeComplete records a fleet spec finishing successfully; once
	// fsynced, a resumed fleet never reruns it.
	TypeComplete = "complete"
)

// Phase names used by timed events. Breakdown sums event durations by
// these keys to reconstruct where a run's time went.
const (
	PhaseGenerate  = "generate"
	PhaseSample    = "sample"
	PhaseSerialize = "serialize"
	PhaseTransport = "transport"
	PhaseRender    = "render"
	PhaseAnalysis  = "analysis"
	PhaseComposite = "composite"
)

// Phases lists the phase names in pipeline order (for stable reporting).
// Each has a telemetry histogram, phase.<name>, fed only by Writer.Emit.
// PhaseGenerate holds two kinds of work: core.RunMeasured's up-front
// generation (rank -1) and each simulation proxy's per-step source
// lookup. Breakdown sums them together, and so do the histogram's
// quantiles.
var Phases = []string{
	PhaseGenerate, PhaseSample, PhaseSerialize,
	PhaseTransport, PhaseRender, PhaseAnalysis, PhaseComposite,
}

// phaseHists holds each phase's histogram, the one live timer of a stage.
var phaseHists = func() map[string]*telemetry.Histogram {
	m := make(map[string]*telemetry.Histogram, len(Phases))
	for _, p := range Phases {
		m[p] = telemetry.Default.Histogram("phase." + p)
	}
	return m
}()

// Event is one journal line. Rank -1 identifies the harness itself (as
// opposed to a proxy-pair rank); Step -1 means "not step-scoped".
type Event struct {
	// T is the wall-clock emission time (stamped by Emit when zero).
	T time.Time `json:"t"`
	// Type says what happened (Type* constants).
	Type string `json:"type"`
	// Phase attributes the event's duration to a pipeline phase; empty
	// for untimed bookkeeping events.
	Phase string `json:"phase,omitempty"`
	// Rank is the proxy-pair rank, or -1 for the harness.
	Rank int `json:"rank"`
	// Step is the simulation time step, or -1 when not step-scoped.
	Step int `json:"step"`
	// DurNS is the event's duration in nanoseconds (0 = instantaneous).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Bytes counts payload bytes (dataset size, wire bytes, ...).
	Bytes int64 `json:"bytes,omitempty"`
	// Elements counts dataset elements after the event.
	Elements int `json:"elements,omitempty"`
	// Detail is a short human-readable qualifier.
	Detail string `json:"detail,omitempty"`
	// Err is the error message for TypeError events.
	Err string `json:"err,omitempty"`
	// Src identifies the originating journal when events from many
	// writers are merged into one stream (fleet ingestion tags each
	// worker's events with its spec ID). Empty for single-writer runs.
	Src string `json:"src,omitempty"`
}

// Dur returns the event duration.
func (e Event) Dur() time.Duration { return time.Duration(e.DurNS) }

// Writer is a concurrent-safe journal recorder. It keeps the newest
// tailLen events in memory for live readers, counts every event, sums
// each phase-attributed event's duration as it arrives, and observes
// each timed one it did not merge from another journal into the phase's
// histogram; when backed by an io.Writer every event also streams out as
// one JSON line. Make one with New, NewWriter, Create or Append. A nil
// *Writer is a valid no-op sink, so instrumented code journals
// unconditionally.
type Writer struct {
	mu     sync.Mutex
	out    io.Writer                // guarded by mu
	file   *os.File                 // guarded by mu
	tail   []Event                  // guarded by mu; event k at tail[k%tailLen]
	n      int                      // guarded by mu; events emitted
	phases map[string]time.Duration // guarded by mu
	err    error                    // guarded by mu
}

// tailLen is how many of its newest events a Writer keeps: twice the
// events of the largest benchmark pass, and more than any test journal
// holds, so only a long run loses the oldest ones from memory (never from
// its file).
const tailLen = 4096

// New returns a memory-only journal.
func New() *Writer { return &Writer{phases: map[string]time.Duration{}} }

// NewWriter returns a journal that mirrors events to w as JSONL.
func NewWriter(w io.Writer) *Writer { return &Writer{out: w, phases: map[string]time.Duration{}} }

// ErrLocked is wrapped by Create/Append when the journal file is
// already open for writing by another process. A journal file has
// exactly one writer at a time — the one-writer-per-journal-file
// contract: interleaved appends from two processes would shred the
// JSONL framing in ways torn-tail repair cannot undo. Fan-in from many
// producers goes through a Collector, which tails each producer's own
// file and writes into the merged journal's single Writer. The lock is
// advisory, attached to the open file, and released by the kernel when
// the holder exits — so a kill -9'd incarnation never leaves a stale lock
// behind for its replacement to trip over.
var ErrLocked = errors.New("journal: file already open by another writer")

// Create returns a journal that mirrors events to a new file at path.
// File-backed journals are deliberately unbuffered: each event is one
// write syscall, so a crash — even kill -9 — loses at most the torn tail
// of the final line, which Read tolerates. The file is exclusively
// locked until Close: a second concurrent writer gets ErrLocked.
func Create(path string) (*Writer, error) {
	// Open without O_TRUNC: truncation must happen under the lock, or a
	// second Create racing a live writer would destroy its events before
	// losing the lock race.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: creating %s: %w", path, err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncating %s: %w", path, err)
	}
	return &Writer{out: f, file: f, phases: map[string]time.Duration{}}, nil
}

// Append returns a journal that appends events to the file at path,
// creating it if absent — the restart entry point: a supervised proxy
// reopens its journal after a crash and the event stream continues where
// the previous incarnation tore off. A torn final line (the previous
// incarnation died mid-write) is truncated away first; appending after
// it would otherwise glue the new event onto the partial line and turn
// a tolerable torn tail into a hard parse error. Like Create, the file
// is exclusively locked until Close (ErrLocked if another process
// already writes it); the tail repair happens under the lock.
func Append(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: appending to %s: %w", path, err)
	}
	if err := repairTornTail(path, f); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{out: f, file: f, phases: map[string]time.Duration{}}, nil
}

// Reopen is Append for a restarted process: it opens the journal at
// path for appending and returns the events already in it, read after
// the lock is held and the torn tail repaired, so they are exactly the
// events the new ones extend.
func Reopen(path string) (*Writer, []Event, error) {
	w, err := Append(path)
	if err != nil {
		return nil, nil, err
	}
	events, err := ReadFile(path)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	return w, events, nil
}

// repairTornTail truncates the file after its last complete
// (newline-terminated) line, through the already-locked descriptor f.
func repairTornTail(path string, f *os.File) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: inspecting %s: %w", path, err)
	}
	keep := bytes.LastIndexByte(raw, '\n') + 1
	if keep == len(raw) {
		return nil
	}
	if err := f.Truncate(int64(keep)); err != nil {
		return fmt.Errorf("journal: repairing torn tail of %s: %w", path, err)
	}
	return nil
}

// Emit records one event, stamping T if unset. Safe for concurrent use
// and on a nil receiver.
func (j *Writer) Emit(ev Event) {
	if j == nil {
		return
	}
	if ev.T.IsZero() {
		ev.T = time.Now()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// The ring grows by append, so a short run pays only for the events
	// it emits, and wraps once it is full.
	if len(j.tail) < tailLen {
		j.tail = append(j.tail, ev)
	} else {
		j.tail[j.n%tailLen] = ev
	}
	j.n++
	if ev.Phase != "" {
		j.phases[ev.Phase] += ev.Dur()
		// A merged event (Src set) was observed by the process that timed
		// it, and an instant (a steering forward, a resume) times nothing.
		if h := phaseHists[ev.Phase]; h != nil && ev.DurNS > 0 && ev.Src == "" {
			h.ObserveDuration(ev.Dur())
		}
	}
	if j.out != nil && j.err == nil {
		raw, err := json.Marshal(ev)
		if err == nil {
			raw = append(raw, '\n')
			_, err = j.out.Write(raw)
		}
		if err != nil {
			j.err = fmt.Errorf("journal: writing event: %w", err)
		}
	}
}

// Error emits a TypeError event for err (no-op when err is nil).
func (j *Writer) Error(rank, step int, err error) {
	if j == nil || err == nil {
		return
	}
	j.Emit(Event{Type: TypeError, Rank: rank, Step: step, Err: err.Error()})
}

// Events returns a copy of the kept events, oldest first. When older
// events were dropped from memory, the list starts with one TypeOverflow
// event whose Elements is the dropped count, so the gap shows in-band.
func (j *Writer) Events() []Event {
	evs, missed := j.EventsSince(0)
	if missed == 0 {
		return evs
	}
	over := Event{
		T: evs[0].T, Type: TypeOverflow, Rank: -1, Step: -1, Elements: missed,
		Detail: fmt.Sprintf("journal kept the newest %d events", tailLen),
	}
	return append([]Event{over}, evs...)
}

// EventsSince returns a copy of the kept events emitted at index n and
// later, and how many events at or after n are no longer kept — the
// in-process live-tail primitive: a subscriber remembers how many events
// it has consumed (missed ones included) and drains the rest on each
// poll. An n at or past the end returns no events.
func (j *Writer) EventsSince(n int) (evs []Event, missed int) {
	if j == nil {
		return nil, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n = max(n, 0)
	if first := j.n - len(j.tail); n < first {
		missed, n = first-n, first
	}
	if n >= j.n {
		return nil, missed
	}
	evs = make([]Event, 0, j.n-n)
	for k := n; k < j.n; k++ {
		evs = append(evs, j.tail[k%tailLen])
	}
	return evs, missed
}

// Len returns the number of events emitted so far, kept or not.
func (j *Writer) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Phases returns a copy of the per-phase wall-clock split of every event
// emitted so far, kept or not: Breakdown over the whole journal.
func (j *Writer) Phases() map[string]time.Duration {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return maps.Clone(j.phases)
}

// Sync fsyncs the backing file, making every event emitted so far
// durable (Emit writes each event through unbuffered), and returns the
// first write or sync error, which is sticky: once a write fails, later
// events reach only the Writer's memory, and every Sync and Close reports
// that first error. Callers invoke it at step boundaries — after an acked
// render, a checkpoint write, a restart decision — so the on-disk
// journal is never more than one in-flight step behind. No-op for
// memory journals and nil writers.
func (j *Writer) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file != nil {
		if err := j.file.Sync(); err != nil && j.err == nil {
			j.err = fmt.Errorf("journal: syncing: %w", err)
		}
	}
	return j.err
}

// Close closes the backing file (no-op for memory journals).
func (j *Writer) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file != nil {
		if err := j.file.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.file = nil
	}
	return j.err
}

// ErrTornTail is wrapped by Read/ReadFile when the final journal line is
// a partial write — the signature a kill -9 leaves mid-event. Every
// complete event is still returned, so crash-recovery tooling can do
//
//	events, err := journal.ReadFile(path)
//	if err != nil && !errors.Is(err, journal.ErrTornTail) { ... }
//
// and treat a torn tail as a recoverable artifact of the crash rather
// than a corrupt journal.
var ErrTornTail = errors.New("journal: torn final line (partial write)")

// Read parses a JSONL journal stream. Blank lines are skipped; a
// malformed line fails with its line number so corrupt journals are
// diagnosable — except a malformed *final* line with no trailing
// newline, which is the torn tail of a crashed writer: every complete
// event is returned along with an ErrTornTail-wrapped error.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var events []Event
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return events, fmt.Errorf("journal: reading: %w", err)
		}
		atEOF := err != nil
		terminated := len(raw) > 0 && raw[len(raw)-1] == '\n'
		raw = bytes.TrimRight(raw, "\r\n")
		if len(raw) > 0 {
			line++
			var ev Event
			if uerr := json.Unmarshal(raw, &ev); uerr != nil {
				if atEOF && !terminated {
					// The writer emits each event as one json+newline write,
					// so an unterminated, unparseable last line can only be a
					// write cut short by a crash.
					return events, fmt.Errorf("journal: line %d: %w", line, ErrTornTail)
				}
				return events, fmt.Errorf("journal: line %d: %w", line, uerr)
			}
			events = append(events, ev)
		}
		if atEOF {
			return events, nil
		}
	}
}

// ReadFile replays the journal at path.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Breakdown reconstructs the per-phase wall-clock split: the summed
// duration of every phase-attributed event, keyed by phase name.
func Breakdown(events []Event) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, ev := range events {
		if ev.Phase != "" {
			out[ev.Phase] += ev.Dur()
		}
	}
	return out
}

// CountByType tallies events per type.
func CountByType(events []Event) map[string]int {
	out := map[string]int{}
	for _, ev := range events {
		out[ev.Type]++
	}
	return out
}

// Errors returns every error event.
func Errors(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Type == TypeError || ev.Err != "" {
			out = append(out, ev)
		}
	}
	return out
}

// Wall returns the run's reported wall time: the duration on the last
// run_end event, or the span between the first and last event timestamps
// when the journal has no run_end (e.g. a crashed run).
func Wall(events []Event) time.Duration {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Type == TypeRunEnd {
			return events[i].Dur()
		}
	}
	if len(events) < 2 {
		return 0
	}
	return events[len(events)-1].T.Sub(events[0].T)
}

// Cursor returns the step a restarted rank resumes at: one past the
// Step of its last checkpoint event, or 0 when it has none. It reads
// Step, not Detail, so journals whose checkpoints carried a sidecar path
// ("cursor=3 path=rank0.ckpt") resume the same way, and the last event
// wins, so a run appended after an earlier one in the same file resumes
// where the later run stopped.
func Cursor(events []Event, rank int) int {
	for i := len(events) - 1; i >= 0; i-- {
		if ev := events[i]; ev.Type == TypeCheckpoint && ev.Rank == rank {
			return ev.Step + 1
		}
	}
	return 0
}

// PhaseNames returns the keys of a breakdown (Breakdown, Writer.Phases):
// known phases first in pipeline order, then any others sorted by name.
func PhaseNames(breakdown map[string]time.Duration) []string {
	var out, rest []string
	for _, p := range Phases {
		if _, ok := breakdown[p]; ok {
			out = append(out, p)
		}
	}
	for p := range breakdown {
		if !slices.Contains(Phases, p) {
			rest = append(rest, p)
		}
	}
	slices.Sort(rest)
	return append(out, rest...)
}
