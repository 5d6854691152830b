// Package fleet is the experiment fleet scheduler behind ethserve: it
// accepts experiment specs (over a local HTTP API or from sweep
// files), shards them across a bounded pool of supervised worker
// subprocesses, and survives the failure of any participant — worker
// or scheduler — without losing or double-counting work.
//
// Each attempt runs one spec under internal/supervise's subprocess
// supervision with a zero restart budget: the supervision is the
// lease. Liveness is the growth of the spec's journal file; a worker
// that stops making journal progress for the stall window is killed
// and its spec re-enters the queue. Failed attempts climb a
// retry→requeue→quarantine ladder with capped exponential backoff,
// and a quarantined spec keeps the tail of its last journal for
// post-mortem.
//
// The merged fleet journal is the fleet's only durable state. Every
// state transition — submit, lease, requeue, quarantine, complete — is
// a journal event written straight into it, alongside the workers' own
// event streams, which a journal.Collector tails and merges; a submit
// event carries its spec, and Submit, completion and quarantine return
// only once their event is fsynced. Replay folds the journal back into
// fleet state, so SIGKILL the scheduler at any instant and a -resume
// brings back exactly the outstanding specs; the conservation law
//
//	completed + quarantined == submitted
//
// holds for every terminated fleet.
//
// Worker journals are one-writer-per-file (journal.ErrLocked): an
// orphaned worker from a killed scheduler still holds its journal's
// flock, so the resumed scheduler's fresh attempt fails cleanly and
// retries after backoff instead of interleaving two writers in one
// file. The kernel drops the lock when the orphan exits.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Spec lifecycle states, as reported by Snapshot and the HTTP API.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusQuarantined = "quarantined"
)

// JournalFile is the merged fleet journal's name under the fleet dir.
const JournalFile = "fleet.jsonl"

// ErrDuplicate is wrapped when a spec ID is submitted twice.
var ErrDuplicate = errors.New("fleet: spec id already submitted")

// Fleet telemetry, exposed on /metrics by any obs server sharing the
// default registry.
var (
	gaugeQueue       = telemetry.Default.Gauge("fleet.queue_depth")
	gaugeInflight    = telemetry.Default.Gauge("fleet.inflight")
	gaugeQuarantined = telemetry.Default.Gauge("fleet.quarantined")
	ctrSubmitted     = telemetry.Default.Counter("fleet.submitted")
	ctrCompleted     = telemetry.Default.Counter("fleet.completed")
	ctrRetries       = telemetry.Default.Counter("fleet.retries")
	ctrRequeues      = telemetry.Default.Counter("fleet.requeues")
)

// Config shapes a Scheduler.
type Config struct {
	// Dir is the fleet state directory: the merged journal and the
	// per-spec journal/artifact directories live here.
	Dir string
	// Workers bounds the subprocess pool. Default 2.
	Workers int
	// Retries is the default per-spec retry budget for specs that do
	// not set their own. Default 2.
	Retries int
	// Stall is the lease heartbeat: an attempt whose journal file stops
	// growing for this long is killed and requeued. 0 disables stall
	// detection (crash-only supervision). Coarse-grained workers like
	// ethbench emit few events; give them a generous window or 0.
	Stall time.Duration
	// Grace is the SIGTERM→SIGKILL drain window per worker. Default 2s
	// (supervise.Proc's default).
	Grace time.Duration
	// BackoffBase and BackoffMax shape the requeue backoff
	// (supervise.Backoff): attempt n waits Base doubled n-1 times, capped
	// at Max. Defaults 100ms and 5s.
	BackoffBase, BackoffMax time.Duration
	// RunBin and BenchBin are the worker binaries for KindRun and
	// KindBench specs. Defaults "ethrun" and "ethbench" (from PATH).
	RunBin, BenchBin string
	// Resume replays the fleet journal in Dir and requeues every spec
	// not yet completed or quarantined.
	Resume bool
	// Poll is the ingestion poll interval (default 25ms).
	Poll time.Duration
	// Stdout and Stderr receive worker output. Nil discards.
	Stdout, Stderr io.Writer
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 2
	}
	return c.Workers
}

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c Config) runBin() string {
	if c.RunBin == "" {
		return "ethrun"
	}
	return c.RunBin
}

func (c Config) benchBin() string {
	if c.BenchBin == "" {
		return "ethbench"
	}
	return c.BenchBin
}

// specState is one spec's scheduler-side lifecycle.
type specState struct {
	spec      Spec
	status    string
	attempts  int // failed attempts so far
	notBefore time.Time
	lastErr   string
}

// Counts is the fleet's live tally, the basis of the conservation law.
type Counts struct {
	Submitted   int `json:"submitted"`
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Completed   int `json:"completed"`
	Quarantined int `json:"quarantined"`
	Retries     int `json:"retries"`
	Requeues    int `json:"requeues"`
}

// Balanced reports the conservation law for a terminated fleet:
// everything submitted either completed or quarantined.
func (c Counts) Balanced() bool {
	return c.Completed+c.Quarantined == c.Submitted && c.Queued == 0 && c.Running == 0
}

// SpecStatus is one spec's externally visible state (Snapshot, API).
type SpecStatus struct {
	Spec
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err,omitempty"`
}

// Scheduler owns the fleet: queue, worker pool, ingestion, journal.
// Create with New, feed with Submit, drive with Run; Drain requests a
// graceful stop.
type Scheduler struct {
	cfg       Config
	jw        *journal.Writer
	collector *journal.Collector

	submitMu    sync.Mutex // serializes Submit; taken before mu
	mu          sync.Mutex
	specs       map[string]*specState
	order       []string // submission order
	queue       []string // runnable, FIFO
	completed   int
	quarantined []Quarantine
	running     int
	retries     int
	requeues    int
	cancel      context.CancelFunc

	wake chan struct{}
}

// resumeLockWait bounds how long a resuming scheduler waits for the
// fleet journal's lock. A worker the killed scheduler forked but had
// not yet exec'd holds an inherited descriptor of the journal, and with
// it the flock, until its exec closes it — milliseconds, not a rival
// scheduler.
const resumeLockWait = 2 * time.Second

// New opens the fleet directory and its merged journal (held with an
// exclusive lock — a second scheduler on the same dir gets
// journal.ErrLocked), wires ingestion, and, with cfg.Resume, replays
// the journal so every outstanding spec re-enters the queue.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: Config.Dir is required: %w", ErrBadSpec)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating fleet dir: %w", err)
	}
	path := filepath.Join(cfg.Dir, JournalFile)
	jw, err := journal.Append(path)
	for deadline := time.Now().Add(resumeLockWait); cfg.Resume && errors.Is(err, journal.ErrLocked) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		jw, err = journal.Append(path)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: opening fleet journal: %w", err)
	}
	var led Ledger
	if cfg.Resume {
		// Append repaired any torn tail, so the journal reads clean.
		events, err := journal.ReadFile(path)
		if err == nil {
			led, err = Replay(events)
		}
		if errors.Is(err, ErrBadSpec) {
			// Submit events written before they carried the spec (Detail
			// "kind=run retries=2") fail here: such a fleet cannot resume.
			err = fmt.Errorf("%w (a journal whose submit events do not carry their spec cannot be resumed)", err)
		}
		if err != nil {
			jw.Close()
			return nil, fmt.Errorf("fleet: resuming: %w", err)
		}
	}
	s := &Scheduler{
		cfg:       cfg,
		jw:        jw,
		collector: journal.NewCollector(jw, cfg.Poll),
		specs:     map[string]*specState{},
		wake:      make(chan struct{}, 1),
	}
	if cfg.Resume {
		s.resume(led)
	}
	s.setGauges()
	return s, nil
}

// resume rebuilds fleet state from the replayed journal. Outstanding
// specs re-enter the queue with a fresh retry budget; completed and
// quarantined specs keep their terminal state. The journal already
// holds every lifecycle event, so only the resume itself is journaled.
func (s *Scheduler) resume(led Ledger) {
	for _, sp := range led.Specs {
		s.specs[sp.ID] = &specState{spec: sp, status: StatusQueued}
		s.order = append(s.order, sp.ID)
	}
	for _, id := range led.Done {
		s.specs[id].status = StatusDone
		s.completed++
	}
	for _, q := range led.Quarantined {
		if _, err := os.Stat(s.tailPath(q.ID)); err == nil {
			q.TailPath = s.tailPath(q.ID)
		}
		st := s.specs[q.ID]
		st.status, st.attempts, st.lastErr = StatusQuarantined, q.Attempts, q.Err
		s.quarantined = append(s.quarantined, q)
	}
	for _, id := range s.order {
		if s.specs[id].status == StatusQueued {
			s.queue = append(s.queue, id)
		}
	}
	c := led.Counts
	s.jw.Emit(journal.Event{
		Type: journal.TypeResume, Rank: -1, Step: -1,
		Detail: fmt.Sprintf("fleet resumed from journal: submitted=%d completed=%d quarantined=%d queued=%d",
			c.Submitted, c.Completed, c.Quarantined, c.Queued),
	})
}

// Submit validates the spec, journals it — the submit event carries
// the spec, and Submit returns once it is fsynced, so the queue
// survives any crash from then on — and wakes the pool. Duplicate IDs
// are rejected with ErrDuplicate.
func (s *Scheduler) Submit(sp Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	raw, _ := json.Marshal(sp) // strings and an int: Marshal cannot fail
	// submitMu, not mu, spans the Emit: the submit event precedes any
	// lease of the spec and the journal's submit order is s.order, while
	// a slow disk holds up only other Submits, never Drain, Counts or a
	// finishing worker.
	s.submitMu.Lock()
	s.mu.Lock()
	_, dup := s.specs[sp.ID]
	s.mu.Unlock()
	if dup {
		s.submitMu.Unlock()
		return fmt.Errorf("fleet: spec %s: %w", sp.ID, ErrDuplicate)
	}
	s.jw.Emit(journal.Event{
		Type: journal.TypeSubmit, Rank: -1, Src: sp.ID, Step: -1, Detail: string(raw),
	})
	s.mu.Lock()
	s.specs[sp.ID] = &specState{spec: sp, status: StatusQueued}
	s.order = append(s.order, sp.ID)
	s.queue = append(s.queue, sp.ID)
	s.mu.Unlock()
	s.submitMu.Unlock()

	ctrSubmitted.Inc()
	s.setGauges()
	if err := s.jw.Sync(); err != nil {
		return fmt.Errorf("fleet: journaling spec %s: %w", sp.ID, err)
	}
	s.wakeWorkers()
	return nil
}

// Run starts ingestion and the worker pool and blocks until the fleet
// drains: the parent context is canceled (signal) or Drain is called
// (API, or batch mode going idle). On the way out it requeues whatever
// was in flight, runs ingestion's final drain, journals the shutdown,
// and syncs and closes the merged journal. Returns an ErrShutdown-wrapped
// error when the parent context forced the drain, nil otherwise.
func (s *Scheduler) Run(ctx context.Context) error {
	rctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	defer cancel()

	colDone := make(chan error, 1)
	go func() { colDone <- s.collector.Run(rctx) }()

	var wg sync.WaitGroup
	for i := 0; i < s.cfg.workers(); i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					s.jw.Emit(journal.Event{
						Type: journal.TypeError, Rank: -1, Step: -1,
						Err: fmt.Sprintf("fleet worker %d panicked: %v", n, v),
					})
				}
			}()
			s.workerLoop(rctx)
		}(i)
	}
	wg.Wait()
	cancel()
	<-colDone // ingestion's final drain has run

	counts := s.Counts()
	s.jw.Emit(journal.Event{
		Type: journal.TypeShutdown, Rank: -1, Step: -1,
		Detail: fmt.Sprintf("fleet drained: submitted=%d completed=%d quarantined=%d queued=%d",
			counts.Submitted, counts.Completed, counts.Quarantined, counts.Queued),
	})
	_ = s.jw.Sync() // a failed sync is sticky: Close returns it
	if err := s.jw.Close(); err != nil {
		return fmt.Errorf("fleet: closing: %w", err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("fleet: drained on signal: %w", supervise.ErrShutdown)
	}
	return nil
}

// Drain requests a graceful stop: in-flight workers get SIGTERM (then
// SIGKILL after the grace window), their specs requeue without
// spending retry budget, and Run returns once the journal is closed.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// WaitIdle blocks until the fleet has no queued or running spec (batch
// mode's exit condition) or ctx ends.
func (s *Scheduler) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Counts reports the live tally.
func (s *Scheduler) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countsLocked()
}

func (s *Scheduler) countsLocked() Counts {
	return Counts{
		Submitted:   len(s.order),
		Queued:      len(s.queue),
		Running:     s.running,
		Completed:   s.completed,
		Quarantined: len(s.quarantined),
		Retries:     s.retries,
		Requeues:    s.requeues,
	}
}

// Snapshot lists every spec in submission order with its live state.
func (s *Scheduler) Snapshot() []SpecStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpecStatus, 0, len(s.order))
	for _, id := range s.order {
		st := s.specs[id]
		out = append(out, SpecStatus{
			Spec: st.spec, Status: st.status, Attempts: st.attempts, LastErr: st.lastErr,
		})
	}
	return out
}

// Quarantined returns the quarantine records.
func (s *Scheduler) Quarantined() []Quarantine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Quarantine(nil), s.quarantined...)
}

// workerLoop is one pool slot: claim the next runnable spec, run one
// attempt, repeat until the fleet drains.
func (s *Scheduler) workerLoop(ctx context.Context) {
	for {
		st := s.next(ctx)
		if st == nil {
			return
		}
		s.runAttempt(ctx, st)
	}
}

// next blocks until a spec is runnable (queued and past its backoff
// gate) and claims it, or returns nil when ctx ends.
func (s *Scheduler) next(ctx context.Context) *specState {
	for {
		// Check for drain before claiming: a requeued in-flight spec must
		// stay queued on the way out, not be re-leased by a worker that
		// has not yet noticed the cancellation.
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		s.mu.Lock()
		now := time.Now()
		for i, id := range s.queue {
			st := s.specs[id]
			if st.notBefore.After(now) {
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			st.status = StatusRunning
			s.running++
			s.mu.Unlock()
			s.setGauges()
			return st
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil
		case <-s.wake:
		case <-time.After(15 * time.Millisecond):
			// Backoff gates expire without an event; poll for them.
		}
	}
}

// runAttempt executes one supervised attempt of st's spec and applies
// the outcome to the retry→requeue→quarantine ladder.
func (s *Scheduler) runAttempt(ctx context.Context, st *specState) {
	sp := st.spec
	sdir := filepath.Join(s.cfg.Dir, "specs", sp.ID)
	artDir := filepath.Join(s.cfg.Dir, "artifacts", sp.ID)
	var err error
	if err = os.MkdirAll(sdir, 0o755); err == nil {
		err = os.MkdirAll(artDir, 0o755)
	}
	jpath := filepath.Join(sdir, "worker.jsonl")
	if err == nil {
		s.collector.Watch(sp.ID, jpath)
		s.jw.Emit(journal.Event{
			Type: journal.TypeLease, Rank: -1, Src: sp.ID, Step: st.attempts + 1,
			Detail: fmt.Sprintf("attempt %d leased to worker pool", st.attempts+1),
		})
		// The supervision IS the lease: zero restart budget, liveness
		// from journal growth. A stalled or crashed worker surfaces here
		// as an error and re-enters the queue via the ladder below.
		err = supervise.RunProc(ctx, supervise.Config{
			Role:        "spec:" + sp.ID,
			MaxRestarts: 0,
			Stall:       s.cfg.Stall,
		}, s.procFor(sp, jpath, artDir))
	}
	s.finish(ctx, st, jpath, err)
}

// procFor builds the worker command for one attempt. Fleet-managed
// flags come after the spec's own arguments so they win: the journal
// and artifact paths are the scheduler's contract, not the spec's.
func (s *Scheduler) procFor(sp Spec, jpath, artDir string) supervise.Proc {
	var path string
	var args []string
	switch sp.Kind {
	case KindRun:
		path = s.cfg.runBin()
		args = append(append([]string{}, sp.Args...), "-trace", jpath, "-out", artDir)
	case KindBench:
		path = s.cfg.benchBin()
		args = append(append([]string{}, sp.Args...), "-only", sp.ID, "-trace", jpath, "-csv", artDir)
	default: // KindExec — validated at submission
		path = sp.Args[0]
		args = append([]string{}, sp.Args[1:]...)
	}
	if _, err := os.Stat(jpath); err == nil && sp.Kind != KindExec {
		// A previous attempt left a journal: resume from it (and repair
		// its torn tail) instead of replaying finished work.
		args = append(args, "-resume")
	}
	env := append(append([]string{}, sp.Env...),
		"ETH_FLEET_SPEC="+sp.ID,
		"ETH_FLEET_JOURNAL="+jpath,
		"ETH_FLEET_ARTIFACTS="+artDir,
	)
	return supervise.Proc{
		Path: path, Args: args, Env: env,
		ProgressPath: jpath, Grace: s.cfg.Grace,
		Stdout: s.cfg.Stdout, Stderr: s.cfg.Stderr,
	}
}

// finish applies one attempt's outcome: complete, requeue-for-drain,
// retry with backoff, or quarantine.
func (s *Scheduler) finish(ctx context.Context, st *specState, jpath string, err error) {
	id := st.spec.ID
	switch {
	case err == nil:
		// Pull the worker's final events into the merged journal before
		// the ledger records completion, so a complete spec is never
		// missing its tail.
		s.collector.Unwatch(id)
		s.mu.Lock()
		st.status = StatusDone
		st.lastErr = ""
		s.completed++
		s.running--
		attempt := st.attempts + 1
		s.mu.Unlock()
		ctrCompleted.Inc()
		s.record(journal.Event{
			Type: journal.TypeComplete, Rank: -1, Src: id, Step: attempt,
			Detail: fmt.Sprintf("completed on attempt %d", attempt),
		})

	case ctx.Err() != nil || errors.Is(err, supervise.ErrShutdown):
		// Drain: the attempt was interrupted, not at fault. Requeue
		// without spending retry budget; the journal already carries
		// the spec, so the queue survives even a SIGKILL right here.
		s.mu.Lock()
		st.status = StatusQueued
		st.notBefore = time.Time{}
		s.queue = append(s.queue, id)
		s.running--
		s.requeues++
		s.mu.Unlock()
		ctrRequeues.Inc()
		s.jw.Emit(journal.Event{
			Type: journal.TypeRequeue, Rank: -1, Src: id, Step: st.attempts + 1,
			Detail: "drain: attempt interrupted by shutdown; budget not spent",
		})

	default:
		s.mu.Lock()
		st.attempts++
		st.lastErr = err.Error()
		budget := st.spec.retryBudget(s.cfg.retries())
		quarantine := st.attempts > budget
		attempts := st.attempts
		s.mu.Unlock()
		if quarantine {
			tail := preserveTail(jpath, s.tailPath(id))
			s.collector.Unwatch(id)
			s.mu.Lock()
			st.status = StatusQuarantined
			q := Quarantine{ID: id, Attempts: attempts, Err: err.Error(), TailPath: tail}
			s.quarantined = append(s.quarantined, q)
			s.running--
			s.mu.Unlock()
			s.record(journal.Event{
				Type: journal.TypeQuarantine, Rank: -1, Src: id, Step: attempts,
				Err:    err.Error(),
				Detail: fmt.Sprintf("retry budget %d exhausted after %d attempts; journal tail preserved", budget, attempts),
			})
		} else {
			backoff := supervise.Backoff(s.cfg.BackoffBase, s.cfg.BackoffMax, attempts)
			s.mu.Lock()
			st.status = StatusQueued
			st.notBefore = time.Now().Add(backoff)
			s.queue = append(s.queue, id)
			s.running--
			s.retries++
			s.requeues++
			s.mu.Unlock()
			ctrRetries.Inc()
			ctrRequeues.Inc()
			s.jw.Emit(journal.Event{
				Type: journal.TypeRequeue, Rank: -1, Src: id, Step: attempts,
				Err:    err.Error(),
				Detail: fmt.Sprintf("attempt %d/%d failed; requeued with %v backoff", attempts, budget+1, backoff),
			})
		}
	}
	s.setGauges()
	s.wakeWorkers()
}

// record emits a terminal event and returns once it is fsynced, so a
// spec the fleet reports complete or quarantined stays so across a
// crash. A sink failure is sticky: Run's close reports it.
func (s *Scheduler) record(ev journal.Event) {
	s.jw.Emit(ev)
	_ = s.jw.Sync()
}

// tailPath is where a quarantined spec's journal tail is preserved.
func (s *Scheduler) tailPath(id string) string {
	return filepath.Join(s.cfg.Dir, "specs", id, "quarantine.tail")
}

func (s *Scheduler) setGauges() {
	s.mu.Lock()
	c := s.countsLocked()
	s.mu.Unlock()
	gaugeQueue.Set(int64(c.Queued))
	gaugeInflight.Set(int64(c.Running))
	gaugeQuarantined.Set(int64(c.Quarantined))
}

// wakeWorkers nudges one idle pool slot; the rest poll.
func (s *Scheduler) wakeWorkers() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// preserveTail copies the last few KiB of a quarantined spec's journal
// to dst for post-mortem, returning dst ("" when there was nothing to
// preserve).
func preserveTail(jpath, dst string) string {
	const keep = 8 << 10
	raw, err := os.ReadFile(jpath)
	if err != nil || len(raw) == 0 {
		return ""
	}
	if len(raw) > keep {
		raw = raw[len(raw)-keep:]
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		return ""
	}
	return dst
}
