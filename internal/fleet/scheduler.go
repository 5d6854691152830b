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
// Every state transition — submit, lease, requeue, quarantine,
// complete — is persisted twice: as a journal event in the merged
// fleet journal (through the internal/ingest batcher, alongside the
// workers' own event streams) and as an atomically-replaced fleet
// checkpoint. SIGKILL the scheduler at any instant and a -resume
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
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/ingest"
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
	// Dir is the fleet state directory: the merged journal, the fleet
	// checkpoint, and per-spec journal/artifact directories live here.
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
	// Resume loads the fleet checkpoint from Dir and requeues every
	// spec not yet completed or quarantined.
	Resume bool
	// Poll is the ingestion poll interval (default 25ms).
	Poll time.Duration
	// FlushCount, FlushEvery, Queue tune the ingest batcher (see
	// ingest.Config); zero values take that package's defaults.
	FlushCount int
	FlushEvery time.Duration
	Queue      int
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

// Scheduler owns the fleet: queue, worker pool, ingestion, checkpoint.
// Create with New, feed with Submit, drive with Run; Drain requests a
// graceful stop.
type Scheduler struct {
	cfg       Config
	jw        *journal.Writer
	batcher   *ingest.Batcher
	collector *ingest.Collector

	mu          sync.Mutex
	specs       map[string]*specState
	order       []string // submission order
	queue       []string // runnable, FIFO
	done        *DoneSet
	quarantined []Quarantine
	running     int
	retries     int
	requeues    int
	cancel      context.CancelFunc

	wake chan struct{}
}

// New opens the fleet directory and its merged journal (held with an
// exclusive lock — a second scheduler on the same dir gets
// journal.ErrLocked), wires ingestion, and, with cfg.Resume, reloads
// the checkpoint so every outstanding spec re-enters the queue.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: Config.Dir is required: %w", ErrBadSpec)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating fleet dir: %w", err)
	}
	jw, err := journal.Append(filepath.Join(cfg.Dir, JournalFile))
	if err != nil {
		return nil, fmt.Errorf("fleet: opening fleet journal: %w", err)
	}
	b := ingest.NewBatcher(ingest.Config{
		Sink: jw, FlushCount: cfg.FlushCount, FlushEvery: cfg.FlushEvery, Queue: cfg.Queue,
	})
	s := &Scheduler{
		cfg:       cfg,
		jw:        jw,
		batcher:   b,
		collector: ingest.NewCollector(b, cfg.Poll),
		specs:     map[string]*specState{},
		done:      NewDoneSet(),
		wake:      make(chan struct{}, 1),
	}
	if cfg.Resume {
		if err := s.resume(); err != nil {
			b.Close()
			jw.Close()
			return nil, err
		}
	}
	s.setGauges()
	return s, nil
}

// resume reloads fleet state from the checkpoint. Outstanding specs
// re-enter the queue with a fresh retry budget; completed and
// quarantined specs keep their terminal state.
func (s *Scheduler) resume() error {
	cp, err := ReadCheckpoint(s.cfg.Dir)
	if errIsNotExist(err) {
		return nil // fresh dir: nothing to resume
	}
	if err != nil {
		return err
	}
	terminal := map[string]string{}
	for _, id := range cp.Done {
		terminal[id] = StatusDone
	}
	quarErr := map[string]Quarantine{}
	for _, q := range cp.Quarantined {
		terminal[q.ID] = StatusQuarantined
		quarErr[q.ID] = q
	}
	for _, sp := range cp.Specs {
		st := &specState{spec: sp, status: StatusQueued}
		// Re-emit the checkpoint's ledger state in-band. A SIGKILLed
		// scheduler loses whatever was queued in its batcher, so the
		// journal may be missing submit/complete/quarantine events the
		// checkpoint already recorded; replaying them here makes the
		// merged journal converge back to the conservation law. Audits
		// tally unique spec IDs, so the duplicates are harmless.
		s.emit(journal.Event{
			Type: journal.TypeSubmit, Src: sp.ID,
			Detail: "resume: reloaded from checkpoint",
		})
		switch terminal[sp.ID] {
		case StatusDone:
			st.status = StatusDone
			s.done.Add(sp.ID)
			s.emit(journal.Event{
				Type: journal.TypeComplete, Src: sp.ID,
				Detail: "resume: recorded complete in checkpoint",
			})
		case StatusQuarantined:
			q := quarErr[sp.ID]
			st.status = StatusQuarantined
			st.attempts = q.Attempts
			st.lastErr = q.Err
			s.quarantined = append(s.quarantined, q)
			s.emit(journal.Event{
				Type: journal.TypeQuarantine, Src: sp.ID, Step: q.Attempts, Err: q.Err,
				Detail: "resume: recorded quarantined in checkpoint",
			})
		default:
			s.queue = append(s.queue, sp.ID)
		}
		s.specs[sp.ID] = st
		s.order = append(s.order, sp.ID)
	}
	return nil
}

// Submit validates the spec, persists it in the checkpoint (the queue
// survives any crash from this point on), journals the submission, and
// wakes the pool. Duplicate IDs are rejected with ErrDuplicate.
func (s *Scheduler) Submit(sp Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.specs[sp.ID]; ok {
		s.mu.Unlock()
		return fmt.Errorf("fleet: spec %s: %w", sp.ID, ErrDuplicate)
	}
	s.specs[sp.ID] = &specState{spec: sp, status: StatusQueued}
	s.order = append(s.order, sp.ID)
	s.queue = append(s.queue, sp.ID)
	cp := s.checkpointLocked()
	s.mu.Unlock()

	ctrSubmitted.Inc()
	s.setGauges()
	s.emit(journal.Event{
		Type: journal.TypeSubmit, Src: sp.ID, Step: -1,
		Detail: fmt.Sprintf("kind=%s retries=%d", sp.Kind, sp.retryBudget(s.cfg.retries())),
	})
	if err := WriteCheckpoint(s.cfg.Dir, cp); err != nil {
		return err
	}
	s.wakeWorkers()
	return nil
}

// Run starts ingestion and the worker pool and blocks until the fleet
// drains: the parent context is canceled (signal) or Drain is called
// (API, or batch mode going idle). On the way out it requeues whatever
// was in flight, writes a final checkpoint, and flushes and closes the
// merged journal. Returns an ErrShutdown-wrapped error when the parent
// context forced the drain, nil otherwise.
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
					s.emit(journal.Event{
						Type: journal.TypeError, Step: -1,
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

	s.mu.Lock()
	cp := s.checkpointLocked()
	counts := s.countsLocked()
	s.mu.Unlock()
	err := WriteCheckpoint(s.cfg.Dir, cp)
	s.emit(journal.Event{
		Type: journal.TypeShutdown, Step: -1,
		Detail: fmt.Sprintf("fleet drained: submitted=%d completed=%d quarantined=%d queued=%d",
			counts.Submitted, counts.Completed, counts.Quarantined, counts.Queued),
	})
	if cerr := s.batcher.Close(); err == nil {
		err = cerr
	}
	if jerr := s.jw.Close(); err == nil {
		err = jerr
	}
	if err != nil {
		return fmt.Errorf("fleet: closing: %w", err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("fleet: drained on signal: %w", supervise.ErrShutdown)
	}
	return nil
}

// Drain requests a graceful stop: in-flight workers get SIGTERM (then
// SIGKILL after the grace window), their specs requeue without
// spending retry budget, and Run returns after the final checkpoint.
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
		Completed:   s.done.Len(),
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

// Completed returns the completed-spec IDs in completion order.
func (s *Scheduler) Completed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done.IDs()
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
		// stay queued (and checkpointed) on the way out, not be re-leased
		// by a worker that has not yet noticed the cancellation.
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
		s.emit(journal.Event{
			Type: journal.TypeLease, Src: sp.ID, Step: st.attempts + 1,
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
		if _, err := os.Stat(jpath); err == nil {
			// A previous attempt left a journal: resume from its step
			// cursors (and repair its torn tail) instead of replaying.
			args = append(args, "-resume")
		}
	case KindBench:
		path = s.cfg.benchBin()
		args = append(append([]string{}, sp.Args...), "-run-one", sp.ID, "-trace", jpath, "-csv", artDir)
	default: // KindExec — validated at submission
		path = sp.Args[0]
		args = append([]string{}, sp.Args[1:]...)
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
		s.done.Add(id)
		s.running--
		attempt := st.attempts + 1
		cp := s.checkpointLocked()
		s.mu.Unlock()
		ctrCompleted.Inc()
		s.emit(journal.Event{
			Type: journal.TypeComplete, Src: id, Step: attempt,
			Detail: fmt.Sprintf("completed on attempt %d", attempt),
		})
		s.checkpoint(cp)

	case ctx.Err() != nil || errors.Is(err, supervise.ErrShutdown):
		// Drain: the attempt was interrupted, not at fault. Requeue
		// without spending retry budget; the checkpoint already carries
		// the spec, so the queue survives even a SIGKILL right here.
		s.mu.Lock()
		st.status = StatusQueued
		st.notBefore = time.Time{}
		s.queue = append(s.queue, id)
		s.running--
		s.requeues++
		s.mu.Unlock()
		ctrRequeues.Inc()
		s.emit(journal.Event{
			Type: journal.TypeRequeue, Src: id, Step: st.attempts + 1,
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
			tail := preserveTail(jpath, filepath.Join(s.cfg.Dir, "specs", id, "quarantine.tail"))
			s.collector.Unwatch(id)
			s.mu.Lock()
			st.status = StatusQuarantined
			q := Quarantine{ID: id, Attempts: attempts, Err: err.Error(), TailPath: tail}
			s.quarantined = append(s.quarantined, q)
			s.running--
			cp := s.checkpointLocked()
			s.mu.Unlock()
			s.emit(journal.Event{
				Type: journal.TypeQuarantine, Src: id, Step: attempts,
				Err:    err.Error(),
				Detail: fmt.Sprintf("retry budget %d exhausted after %d attempts; journal tail preserved", budget, attempts),
			})
			s.checkpoint(cp)
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
			s.emit(journal.Event{
				Type: journal.TypeRequeue, Src: id, Step: attempts,
				Err:    err.Error(),
				Detail: fmt.Sprintf("attempt %d/%d failed; requeued with %v backoff", attempts, budget+1, backoff),
			})
		}
	}
	s.setGauges()
	s.wakeWorkers()
}

// checkpoint persists cp, surfacing a failed write in the journal —
// the fleet keeps running, but the operator sees that resumability is
// degraded.
func (s *Scheduler) checkpoint(cp Checkpoint) {
	if err := WriteCheckpoint(s.cfg.Dir, cp); err != nil {
		s.emit(journal.Event{Type: journal.TypeError, Step: -1, Err: err.Error(),
			Detail: "fleet checkpoint write failed; a crash now would replay completed specs"})
	}
}

// checkpointLocked builds the durable state snapshot. Caller holds mu.
func (s *Scheduler) checkpointLocked() Checkpoint {
	specs := make([]Spec, 0, len(s.order))
	for _, id := range s.order {
		specs = append(specs, s.specs[id].spec)
	}
	return Checkpoint{
		Specs:       specs,
		Done:        s.done.IDs(),
		Quarantined: append([]Quarantine(nil), s.quarantined...),
	}
}

// emit sends one fleet control event through the ingest batcher so it
// interleaves with worker traffic in the merged journal.
func (s *Scheduler) emit(ev journal.Event) {
	ev.Rank = -1
	_ = s.batcher.Put(ev)
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
