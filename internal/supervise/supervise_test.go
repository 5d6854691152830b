package supervise

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

func fastCfg(role string, restarts int) Config {
	return Config{
		Role:        role,
		MaxRestarts: restarts,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Journal:     journal.New(),
	}
}

// restartCount counts the restart events s journaled.
func restartCount(s *Supervisor) int {
	n := 0
	for _, ev := range s.cfg.Journal.Events() {
		if ev.Type == journal.TypeRestart {
			n++
		}
	}
	return n
}

func TestRunSucceedsFirstTry(t *testing.T) {
	s := New(fastCfg("viz", 3))
	var calls int
	if err := s.Run(context.Background(), func(context.Context) error {
		calls++
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 1 || restartCount(s) != 0 {
		t.Fatalf("calls=%d restarts=%d, want 1/0", calls, restartCount(s))
	}
}

func TestRunRestartsOnErrorThenSucceeds(t *testing.T) {
	jw := journal.New()
	cfg := fastCfg("sim", 3)
	cfg.Journal = jw
	s := New(cfg)
	var calls int
	err := s.Run(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 3 || restartCount(s) != 2 {
		t.Fatalf("calls=%d restarts=%d, want 3/2", calls, restartCount(s))
	}
	var restarts []journal.Event
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeRestart {
			restarts = append(restarts, ev)
		}
	}
	if len(restarts) != 2 {
		t.Fatalf("restart events = %d, want 2", len(restarts))
	}
	if !strings.Contains(restarts[0].Detail, "role=sim") ||
		!strings.Contains(restarts[0].Detail, "attempt=1/3") ||
		!strings.Contains(restarts[0].Detail, "cause=error") {
		t.Fatalf("restart detail = %q", restarts[0].Detail)
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	s := New(fastCfg("sim", 2))
	boom := errors.New("boom")
	err := s.Run(context.Background(), func(context.Context) error { return boom })
	if !errors.Is(err, ErrRestartBudget) {
		t.Fatalf("err = %v, want ErrRestartBudget", err)
	}
	if restartCount(s) != 2 {
		t.Fatalf("restarts = %d, want 2", restartCount(s))
	}
	if ExitCode(err) != ExitBudget {
		t.Fatalf("ExitCode = %d, want %d", ExitCode(err), ExitBudget)
	}
}

func TestRunRecoversPanicWithStack(t *testing.T) {
	jw := journal.New()
	cfg := fastCfg("viz", 1)
	cfg.Journal = jw
	s := New(cfg)
	var calls int
	err := s.Run(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			panic("kaboom at step 3")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	var errEv, restartEv *journal.Event
	for i, ev := range jw.Events() {
		switch ev.Type {
		case journal.TypeError:
			errEv = &jw.Events()[i]
		case journal.TypeRestart:
			restartEv = &jw.Events()[i]
		}
	}
	if errEv == nil || !strings.Contains(errEv.Err, "kaboom at step 3") ||
		!strings.Contains(errEv.Err, "goroutine") {
		t.Fatalf("panic error event missing or lacks stack: %+v", errEv)
	}
	if restartEv == nil || !strings.Contains(restartEv.Detail, "cause=panic") {
		t.Fatalf("restart event = %+v, want cause=panic", restartEv)
	}
}

func TestWatchdogStallTearsDownAndRestarts(t *testing.T) {
	var progress atomic.Int64
	var interrupted atomic.Int64
	cfg := fastCfg("viz", 1)
	cfg.Stall = 30 * time.Millisecond
	cfg.Probe = progress.Load
	cfg.Interrupt = func() { interrupted.Add(1) }
	cfg.Journal = journal.New()
	s := New(cfg)
	var calls int
	err := s.Run(context.Background(), func(ctx context.Context) error {
		calls++
		if calls == 1 {
			// First attempt hangs: no progress, only unblocked by teardown.
			<-ctx.Done()
			return fmt.Errorf("attempt torn down: %w", ctx.Err())
		}
		progress.Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 || restartCount(s) != 1 {
		t.Fatalf("calls=%d restarts=%d, want 2/1", calls, restartCount(s))
	}
	if interrupted.Load() == 0 {
		t.Fatal("Interrupt was not invoked on stall")
	}
	var detail string
	for _, ev := range cfg.Journal.Events() {
		if ev.Type == journal.TypeRestart {
			detail = ev.Detail
		}
	}
	if !strings.Contains(detail, "cause=stall") {
		t.Fatalf("restart detail = %q, want cause=stall", detail)
	}
}

func TestWatchdogToleratesSlowProgress(t *testing.T) {
	var progress atomic.Int64
	cfg := fastCfg("viz", 0)
	cfg.Stall = 60 * time.Millisecond
	cfg.Probe = progress.Load
	s := New(cfg)
	err := s.Run(context.Background(), func(context.Context) error {
		// Advance progress well inside the stall window, for longer than
		// the window itself.
		for i := 0; i < 8; i++ {
			time.Sleep(20 * time.Millisecond)
			progress.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v (watchdog fired despite progress)", err)
	}
}

func TestShutdownDoesNotSpendBudget(t *testing.T) {
	jw := journal.New()
	cfg := fastCfg("sim", 5)
	cfg.Journal = jw
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	err := s.Run(ctx, func(tctx context.Context) error {
		calls++
		cancel()
		<-tctx.Done()
		return fmt.Errorf("drained: %w", ErrShutdown)
	})
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
	if calls != 1 || restartCount(s) != 0 {
		t.Fatalf("calls=%d restarts=%d, want 1/0 (shutdown must not restart)", calls, restartCount(s))
	}
	var sawShutdown bool
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeShutdown {
			sawShutdown = true
		}
	}
	if !sawShutdown {
		t.Fatal("no shutdown event journaled")
	}
	if ExitCode(err) != ExitShutdown {
		t.Fatalf("ExitCode = %d, want %d", ExitCode(err), ExitShutdown)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("x: %w", ErrShutdown), ExitShutdown},
		{fmt.Errorf("x: %w", ErrRestartBudget), ExitBudget},
		{context.Canceled, ExitShutdown},
		{errors.New("other"), 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestShutdownDrainIsNotStalled is a regression test for a watchdog
// misclassification found by the ctxguard analyzer: the watchdog loop
// never observed the run context, so a graceful shutdown whose drain
// outlasted the stall window was torn down as a stall — firing Interrupt
// and counting a spurious restart cause against a run that was already
// exiting. The watchdog must stand down once shutdown is in flight.
func TestShutdownDrainIsNotStalled(t *testing.T) {
	var progress atomic.Int64
	var interrupted atomic.Int64
	cfg := fastCfg("sim", 3)
	cfg.Stall = 30 * time.Millisecond
	cfg.Probe = progress.Load
	cfg.Interrupt = func() { interrupted.Add(1) }
	cfg.Journal = journal.New()
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	err := s.Run(ctx, func(tctx context.Context) error {
		cancel()
		// Drain for longer than the stall window without progress — a slow
		// but orderly teardown, not a hang.
		time.Sleep(4 * cfg.Stall)
		<-tctx.Done()
		return fmt.Errorf("drained: %w", ErrShutdown)
	})
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
	if errors.Is(err, ErrStalled) {
		t.Fatalf("slow drain misclassified as stall: %v", err)
	}
	if interrupted.Load() != 0 {
		t.Fatal("watchdog fired Interrupt during a graceful shutdown drain")
	}
	if restartCount(s) != 0 {
		t.Fatalf("restarts = %d, want 0", restartCount(s))
	}
}

// TestBackoff pins the shared capped-doubling schedule (supervisor
// restarts and fleet requeues): it doubles from the base, stops at the
// cap, and no attempt count — a fleet spec may carry any Retries —
// overflows it into a zero or negative delay, which would requeue with
// no backoff at all.
func TestBackoff(t *testing.T) {
	const base, max = 100 * time.Millisecond, 5 * time.Second
	for _, tc := range []struct {
		base, max time.Duration
		attempt   int
		want      time.Duration
	}{
		{base, max, 1, base},
		{base, max, 2, 2 * base},
		{base, max, 6, 32 * base},
		{base, max, 7, max}, // 6.4s capped
		{base, max, 64, max},
		{base, max, 1 << 30, max},
		{0, 0, 1, base}, // defaults
		{0, 0, 64, max},
		{time.Second, 4 * time.Second, 3, 4 * time.Second}, // lands exactly on the cap
		{10 * time.Second, time.Second, 1, time.Second},    // base above the cap
		{time.Nanosecond, 1<<63 - 1, 64, 1<<63 - 1},        // widest cap: saturates, never wraps
	} {
		got := Backoff(tc.base, tc.max, tc.attempt)
		if got != tc.want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", tc.base, tc.max, tc.attempt, got, tc.want)
		}
	}
}
