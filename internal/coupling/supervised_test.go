package coupling

// Process-level chaos, in-process half: a proxy panicking mid-step and
// a pair stalling under the watchdog must both complete the run under
// the restart budget with the same rendered output and the same journal
// signature (modulo restart/shutdown events) as an undisturbed run.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/supervise"
)

// chaosOp is an analysis operation that can panic or block once at a
// chosen step; after firing it behaves normally, modeling a transient
// in-situ failure a restart should clear.
type chaosOp struct {
	step  int
	block time.Duration // sleep instead of panic when > 0
	fired *atomic.Bool
}

func (o *chaosOp) Name() string { return "chaos-op" }
func (o *chaosOp) Apply(ctx proxy.OpContext, ds data.Dataset) (proxy.OpResult, error) {
	if ctx.Step == o.step && o.fired.CompareAndSwap(false, true) {
		if o.block > 0 {
			time.Sleep(o.block)
		} else {
			panic(fmt.Sprintf("injected panic at step %d", ctx.Step))
		}
	}
	return proxy.OpResult{Op: o.Name(), Summary: "ok"}, nil
}

// supervisedPair is chaosPair plus the optional chaos operation.
func supervisedPair(t *testing.T, steps int, op proxy.Operation, jw *journal.Writer) PairSpec {
	t.Helper()
	var datasets []data.Dataset
	for s := 0; s < steps; s++ {
		datasets = append(datasets, testCloud(400, int64(s)+1))
	}
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: jw}, &proxy.MemSource{Data: datasets})
	if err != nil {
		t.Fatal(err)
	}
	cfg := proxy.VizConfig{Width: 32, Height: 32, Algorithm: "points", ImagesPerStep: 1, Journal: jw}
	if op != nil {
		cfg.Operations = []proxy.Operation{op}
	}
	viz, err := proxy.NewVizProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return PairSpec{Sim: sim, Viz: viz}
}

func fastSupervision(restarts int, stall time.Duration) supervise.Config {
	return supervise.Config{
		MaxRestarts: restarts,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		Stall: stall,
	}
}

// runSupervised executes one supervised socket run and returns its
// report, journal, and error.
func runSupervised(t *testing.T, op proxy.Operation, restarts int, stall time.Duration) (Report, *journal.Writer, error) {
	t.Helper()
	jw := journal.New()
	pair := supervisedPair(t, 3, op, jw)
	pol := Policy{MaxRetries: 2, Backoff: fastBackoff(), Seed: 42}
	layout := filepath.Join(t.TempDir(), "layout")
	rep, err := RunSocketPairSupervised(context.Background(), pair.Sim, pair.Viz, layout, 0,
		pol, fastSupervision(restarts, stall), jw)
	return rep, jw, err
}

func countRestarts(jw *journal.Writer, cause string) int {
	n := 0
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeRestart && strings.Contains(ev.Detail, "cause="+cause) {
			n++
		}
	}
	return n
}

// TestSupervisedPanicRestartsAndResumes is the in-process half of the
// issue's process-level chaos criterion: a mid-step panic restarts the
// pair under budget, the run resumes from the step cursor, and the
// final frame and journal signature match an undisturbed run.
func TestSupervisedPanicRestartsAndResumes(t *testing.T) {
	baseRep, baseJW, err := runSupervised(t, &chaosOp{step: -1, fired: &atomic.Bool{}}, 0, 0)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	rep, jw, err := runSupervised(t, &chaosOp{step: 1, fired: &atomic.Bool{}}, 2, 0)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if n := countRestarts(jw, "panic"); n != 1 {
		t.Fatalf("panic restart events = %d, want 1", n)
	}
	// Same signature modulo restart/shutdown (chaosSignature excludes
	// them by construction) and same rendered output.
	baseSig := chaosSignature(baseJW, baseRep, nil)
	sig := chaosSignature(jw, rep, nil)
	if !reflect.DeepEqual(baseSig, sig) {
		t.Errorf("signature diverged from undisturbed run:\nbase: %v\ngot:  %v", baseSig, sig)
	}
	assertSameFinalFrame(t, baseRep, rep)
	// The panic left a stack-carrying error event behind.
	var sawStack bool
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeError && strings.Contains(ev.Err, "injected panic at step 1") &&
			strings.Contains(ev.Err, "goroutine") {
			sawStack = true
		}
	}
	if !sawStack {
		t.Error("no journaled panic stack")
	}
}

// TestSupervisedStallTornDownAndResumed drives the watchdog path: an
// operation blocks long past the stall timeout, the supervisor tears
// the pair's sockets down via the connection registry, and the restart
// completes the run without re-rendering completed steps.
func TestSupervisedStallTornDownAndResumed(t *testing.T) {
	baseRep, _, err := runSupervised(t, &chaosOp{step: -1, fired: &atomic.Bool{}}, 0, 0)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	rep, jw, err := runSupervised(t, &chaosOp{step: 1, block: 700 * time.Millisecond, fired: &atomic.Bool{}}, 2, 120*time.Millisecond)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if n := countRestarts(jw, "stall"); n != 1 {
		t.Fatalf("stall restart events = %d, want 1", n)
	}
	seen := map[int]int{}
	for _, r := range rep.Viz.Results {
		seen[r.Step]++
	}
	for step, n := range seen {
		if n != 1 {
			t.Errorf("step %d rendered %d times", step, n)
		}
	}
	if len(seen) != 3 {
		t.Errorf("rendered %d distinct steps, want 3", len(seen))
	}
	assertSameFinalFrame(t, baseRep, rep)
}

// TestSupervisedBudgetExhausted pins the give-up path: a panic on every
// incarnation exhausts the budget and surfaces ErrRestartBudget.
func TestSupervisedBudgetExhausted(t *testing.T) {
	jw := journal.New()
	pair := supervisedPair(t, 3, alwaysPanicOp{}, jw)
	pol := Policy{MaxRetries: 1, Backoff: fastBackoff(), Seed: 42}
	layout := filepath.Join(t.TempDir(), "layout")
	_, err := RunSocketPairSupervised(context.Background(), pair.Sim, pair.Viz, layout, 0,
		pol, fastSupervision(1, 0), jw)
	if !errors.Is(err, supervise.ErrRestartBudget) {
		t.Fatalf("err = %v, want ErrRestartBudget", err)
	}
	if n := countRestarts(jw, "panic"); n != 1 {
		t.Fatalf("restart events = %d, want 1 (budget of 1)", n)
	}
}

type alwaysPanicOp struct{}

func (alwaysPanicOp) Name() string { return "always-panic" }
func (alwaysPanicOp) Apply(ctx proxy.OpContext, ds data.Dataset) (proxy.OpResult, error) {
	if ctx.Step == 1 {
		panic("persistent failure at step 1")
	}
	return proxy.OpResult{Op: "always-panic", Summary: "ok"}, nil
}

// TestSupervisedShutdownDrains proves context cancellation ends a
// supervised pair with ErrShutdown without spending the restart budget.
func TestSupervisedShutdownDrains(t *testing.T) {
	jw := journal.New()
	ctx, cancel := context.WithCancel(context.Background())
	canceler := &cancelOp{cancel: cancel}
	pair := supervisedPair(t, 50, canceler, jw)
	pol := Policy{MaxRetries: 2, Backoff: fastBackoff(), Seed: 42}
	layout := filepath.Join(t.TempDir(), "layout")
	rep, err := RunSocketPairSupervised(ctx, pair.Sim, pair.Viz, layout, 0,
		pol, fastSupervision(3, 0), jw)
	if !errors.Is(err, supervise.ErrShutdown) && !errors.Is(err, proxy.ErrStopped) {
		t.Fatalf("err = %v, want shutdown/drain", err)
	}
	if supervise.ExitCode(fmt.Errorf("w: %w", supervise.ErrShutdown)) != supervise.ExitShutdown {
		t.Fatal("exit code mapping broken")
	}
	// The drain is at a step boundary: the in-flight step completed.
	if len(rep.Viz.Results) == 0 {
		t.Error("no steps completed before drain")
	}
	for _, r := range rep.Viz.Results {
		if r.Images != 1 {
			t.Errorf("step %d drained mid-render", r.Step)
		}
	}
	var sawShutdown bool
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeShutdown {
			sawShutdown = true
		}
	}
	if !sawShutdown {
		t.Error("no shutdown event journaled")
	}
}

// cancelOp cancels the run context during step 2's analysis.
type cancelOp struct{ cancel context.CancelFunc }

func (o *cancelOp) Name() string { return "cancel-op" }
func (o *cancelOp) Apply(ctx proxy.OpContext, ds data.Dataset) (proxy.OpResult, error) {
	if ctx.Step == 2 {
		o.cancel()
	}
	return proxy.OpResult{Op: o.Name(), Summary: "ok"}, nil
}

func assertSameFinalFrame(t *testing.T, a, b Report) {
	t.Helper()
	if len(a.Viz.Results) == 0 || len(b.Viz.Results) == 0 {
		t.Fatal("missing results for frame comparison")
	}
	fa := a.Viz.LastFrame()
	fc := b.Viz.LastFrame()
	rmse, err := fb.RMSE(fa, fc)
	if err != nil {
		t.Fatal(err)
	}
	if rmse != 0 {
		t.Errorf("final frame diverged from undisturbed run: RMSE=%g", rmse)
	}
}
