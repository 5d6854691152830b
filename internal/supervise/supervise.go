// Package supervise keeps ETH runs alive through partial failure. A
// Supervisor executes one role of a proxy pairing — an in-process
// attempt function, or a real subprocess (Proc) — under a watchdog:
// liveness is derived from journal/step progress via a Probe, a stalled
// or panicked or dead attempt is torn down and restarted under a
// restart budget with capped exponential backoff, and every decision is
// journaled as a restart or shutdown event. Restarts rely on the
// harness's persistent progress (the visualization proxy's step cursor,
// the simulation proxy's ServeFrom resume point), so a restarted role
// resumes instead of replaying completed steps.
//
// SignalContext provides the process-level half: the first SIGINT or
// SIGTERM cancels the returned context so the run drains its in-flight
// step, flushes and fsyncs the journal, and exits with ExitShutdown; a
// second signal hard-aborts with ExitAbort. Long-running in-situ
// couplings are exactly the workloads where partial failure is the norm
// — SIM-SITU motivates faithful replay of in-situ workflows across
// faults, and ISAAC's steerable loop assumes the visualization side can
// drop out and rejoin a running simulation.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Process exit codes for the ETH binaries. 0 and 1 keep their Unix
// meanings (success, generic failure); the supervisor's outcomes get
// distinct codes so sweep drivers and CI can tell a drained shutdown
// from a crash.
const (
	// ExitShutdown is a graceful signal-initiated shutdown: the in-flight
	// step drained, the journal was flushed and fsynced.
	ExitShutdown = 3
	// ExitAbort is the second-signal hard abort: no drain, best-effort
	// journal sync only.
	ExitAbort = 4
	// ExitBudget means the restart budget was exhausted without a
	// successful completion.
	ExitBudget = 5
)

// Sentinel errors. All supervisor failures wrap one of these so callers
// can classify with errors.Is across the coupling/cmd boundary.
var (
	// ErrRestartBudget is wrapped when MaxRestarts restarts were spent
	// without the role completing.
	ErrRestartBudget = errors.New("supervise: restart budget exhausted")
	// ErrStalled is wrapped when the watchdog saw no progress for longer
	// than the stall timeout and tore the attempt down.
	ErrStalled = errors.New("supervise: watchdog stall")
	// ErrPanicked is wrapped when an in-process attempt panicked and the
	// supervisor recovered it.
	ErrPanicked = errors.New("supervise: attempt panicked")
	// ErrShutdown is wrapped when a run ends because shutdown was
	// requested (signal, context cancellation) rather than by failure.
	ErrShutdown = errors.New("supervise: shutdown requested")
)

// Supervision telemetry: restarts and stalls across all supervisors.
var (
	ctrRestarts = telemetry.Default.Counter("supervise.restarts")
	ctrStalls   = telemetry.Default.Counter("supervise.stalls")
)

// Observer receives the watchdog's live view of a supervised role —
// the feed the observability plane (internal/obs) turns into /healthz
// and /readyz. Implementations must be safe for concurrent use (every
// pair's supervisor reports independently) and must not block: calls
// happen on the watchdog goroutine between probe ticks.
type Observer interface {
	// RoleProgress reports the probe's current progress value. Called at
	// attempt start and whenever the watchdog sees the value move.
	RoleProgress(role string, progress int64)
	// RoleStalled reports that the watchdog saw no progress for stalledFor
	// and is tearing the attempt down.
	RoleStalled(role string, stalledFor time.Duration)
	// RoleRestarted reports a restart decision: attempt restarts spent so
	// far out of the budget, with the classified cause token.
	RoleRestarted(role string, restarts, budget int, cause string)
	// RoleDone reports the supervisor's final outcome: nil for success,
	// otherwise an error wrapping one of the package sentinels
	// (ErrShutdown, ErrRestartBudget, ...).
	RoleDone(role string, err error)
}

// Config shapes one supervised role.
type Config struct {
	// Role names the supervised role in journal events ("sim", "viz",
	// "pair0", ...). Empty means "task".
	Role string
	// MaxRestarts is the restart budget: how many times a failed attempt
	// may be restarted before the supervisor gives up. 0 means never
	// restart — the first failure is final.
	MaxRestarts int
	// BackoffBase is the delay before the first restart (default 100ms);
	// each further restart doubles it up to BackoffMax (default 5s).
	BackoffBase, BackoffMax time.Duration
	// Stall arms the watchdog: when Probe reports no progress for longer
	// than this, the attempt is torn down and counted as a failure. 0
	// disables stall detection (crash/panic supervision still applies).
	Stall time.Duration
	// Probe reports a monotonically non-decreasing progress value —
	// journal length, step cursor, file size. Required when Stall > 0.
	Probe func() int64
	// Interrupt, when set, is invoked (once per stalled attempt) after
	// the watchdog cancels the attempt context: it should unblock the
	// attempt's I/O (close listeners and connections, kill the process)
	// so the attempt unwinds promptly. Go cannot preempt compute, so the
	// supervisor always waits for the attempt to return before
	// restarting — Interrupt is what makes that wait short.
	Interrupt func()
	// Journal receives restart/shutdown/error events. May be nil.
	Journal *journal.Writer
	// Observer, when set, receives live progress/stall/restart/outcome
	// reports for health endpoints and dashboards. May be nil.
	Observer Observer
}

// role returns the display name for journal events.
func (c Config) role() string {
	if c.Role == "" {
		return "task"
	}
	return c.Role
}

// Backoff is the capped-doubling delay before retry number attempt
// (1-based): base doubled attempt-1 times, never above max. Non-positive
// base and max select the defaults, 100ms and 5s. The doubling stops at
// the cap, so no attempt count can overflow it into a zero or negative
// delay.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d > max/2 {
			return max
		}
		d *= 2
	}
	if d > max {
		return max
	}
	return d
}

// Task is one in-process attempt of the supervised role. It must honor
// ctx: when the context is canceled (shutdown or watchdog teardown) the
// attempt should drain or fail promptly.
type Task func(ctx context.Context) error

// Supervisor restarts a failing role under Config's policy.
type Supervisor struct {
	cfg Config
	// restarts counts restarts performed so far (telemetry/tests).
	restarts atomic.Int64
}

// New returns a supervisor for the config.
func New(cfg Config) *Supervisor { return &Supervisor{cfg: cfg} }

// Restarts reports how many restarts this supervisor has performed.
func (s *Supervisor) Restarts() int { return int(s.restarts.Load()) }

// Run executes task under supervision until it succeeds, shutdown is
// requested, or the restart budget is exhausted. A panicking attempt is
// recovered, journaled as an error event carrying the stack, and
// treated as a restartable failure. Failures wrap the package sentinels
// so callers can classify the outcome.
func (s *Supervisor) Run(ctx context.Context, task Task) (rerr error) {
	if s.cfg.Observer != nil {
		defer func() { s.cfg.Observer.RoleDone(s.cfg.role(), rerr) }()
	}
	for attempt := 0; ; attempt++ {
		err := s.attempt(ctx, task)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(err, ErrShutdown) {
			// Shutdown was requested: journal the drain and pass the error
			// through without spending the restart budget.
			s.cfg.Journal.Emit(journal.Event{
				Type: journal.TypeShutdown, Rank: -1, Step: -1,
				Detail: fmt.Sprintf("role=%s drained after attempt %d", s.cfg.role(), attempt+1),
			})
			if errors.Is(err, ErrShutdown) {
				return err
			}
			// Flatten the attempt's error with %v: interruption supersedes
			// whatever failure class the attempt was in the middle of, and the
			// result must classify as shutdown only.
			//lint:ignore errwrap deliberate flattening so the result classifies as shutdown, not the attempt's failure class
			return fmt.Errorf("supervise: %s attempt %d interrupted: %v: %w", s.cfg.role(), attempt+1, err, ErrShutdown)
		}
		if attempt >= s.cfg.MaxRestarts {
			return fmt.Errorf("supervise: %s failed after %d restarts: %w: %w",
				s.cfg.role(), attempt, err, ErrRestartBudget)
		}
		s.restarts.Add(1)
		ctrRestarts.Inc()
		backoff := Backoff(s.cfg.BackoffBase, s.cfg.BackoffMax, attempt+1)
		if s.cfg.Observer != nil {
			s.cfg.Observer.RoleRestarted(s.cfg.role(), attempt+1, s.cfg.MaxRestarts, causeOf(err))
		}
		s.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeRestart, Rank: -1, Step: -1,
			Detail: fmt.Sprintf("role=%s attempt=%d/%d cause=%s backoff=%v",
				s.cfg.role(), attempt+1, s.cfg.MaxRestarts, causeOf(err), backoff),
			Err: err.Error(),
		})
		s.cfg.Journal.Sync()
		if !sleepCtx(ctx, backoff) {
			return fmt.Errorf("supervise: %s shutdown during restart backoff: %w", s.cfg.role(), ErrShutdown)
		}
	}
}

// attempt runs task once with panic recovery and the stall watchdog.
func (s *Supervisor) attempt(ctx context.Context, task Task) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				stack := debug.Stack()
				s.cfg.Journal.Emit(journal.Event{
					Type: journal.TypeError, Rank: -1, Step: -1,
					Detail: fmt.Sprintf("role=%s panic", s.cfg.role()),
					Err:    fmt.Sprintf("panic: %v\n%s", v, stack),
				})
				done <- fmt.Errorf("supervise: %s: panic: %v: %w", s.cfg.role(), v, ErrPanicked)
			}
		}()
		done <- task(actx)
	}()
	if s.cfg.Stall <= 0 || s.cfg.Probe == nil {
		return <-done
	}

	tick := time.NewTicker(watchInterval(s.cfg.Stall))
	defer tick.Stop()
	last := s.cfg.Probe()
	lastChange := time.Now()
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoleProgress(s.cfg.role(), last)
	}
	for {
		select {
		case err := <-done:
			return err
		case <-tick.C:
			if ctx.Err() != nil {
				// Shutdown is already in flight: actx is canceled with it, so
				// the task is unwinding, not stalling. Keeping the watchdog
				// armed here would misclassify a slow teardown as ErrStalled
				// and burn a restart on a run that is exiting; just join.
				return <-done
			}
			if v := s.cfg.Probe(); v != last {
				last, lastChange = v, time.Now()
				if s.cfg.Observer != nil {
					s.cfg.Observer.RoleProgress(s.cfg.role(), last)
				}
				continue
			}
			if stalled := time.Since(lastChange); stalled > s.cfg.Stall {
				ctrStalls.Inc()
				if s.cfg.Observer != nil {
					s.cfg.Observer.RoleStalled(s.cfg.role(), stalled)
				}
				cancel()
				if s.cfg.Interrupt != nil {
					s.cfg.Interrupt()
				}
				// Wait for the attempt to unwind: the proxies share mutable
				// state across attempts, so restarting before the old attempt
				// has fully returned would race.
				err := <-done
				// Flatten the attempt's error with %v, never %w: the teardown
				// cancel makes the task drain and report ErrShutdown, and if
				// that wrap survived here Run would mistake the stall for a
				// graceful shutdown and stop restarting.
				//lint:ignore errwrap deliberate flattening; a %w here would leak the drain's ErrShutdown and defeat the restart
				return fmt.Errorf("supervise: %s made no progress for %v (attempt ended: %v): %w", s.cfg.role(), stalled.Round(time.Millisecond), err, ErrStalled)
			}
		}
	}
}

// watchInterval is the watchdog poll period: a quarter of the stall
// timeout, floored so tight test timeouts don't spin.
func watchInterval(stall time.Duration) time.Duration {
	iv := stall / 4
	if iv < 5*time.Millisecond {
		iv = 5 * time.Millisecond
	}
	return iv
}

// sleepCtx sleeps for d or until ctx is canceled; it reports whether the
// full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// causeOf classifies a failed attempt for the restart event's cause
// token: panic, stall, or a generic error.
func causeOf(err error) string {
	switch {
	case errors.Is(err, ErrPanicked):
		return "panic"
	case errors.Is(err, ErrStalled):
		return "stall"
	case errors.Is(err, ErrExited):
		return "exit"
	default:
		return "error"
	}
}
