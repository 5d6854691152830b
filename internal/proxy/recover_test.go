package proxy

import (
	"errors"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/journal"
)

// panicOp is an analysis operation that panics on a chosen step.
type panicOp struct{ step int }

func (p panicOp) Name() string { return "panic-op" }
func (p panicOp) Apply(ctx OpContext, ds data.Dataset) (OpResult, error) {
	if ctx.Step == p.step {
		panic("injected analysis panic")
	}
	return OpResult{Op: p.Name(), Summary: "ok"}, nil
}

func TestVizPanicContained(t *testing.T) {
	jw := journal.New()
	vp, err := NewVizProxy(VizConfig{
		Width: 16, Height: 16, Algorithm: "points",
		Operations: []Operation{panicOp{step: 1}},
		Journal:    jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vp.RenderStep(0, testCloud(50, 1)); err != nil {
		t.Fatalf("step 0: %v", err)
	}
	_, err = vp.RenderStep(1, testCloud(50, 2))
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("step 1 err = %v, want ErrPanic", err)
	}
	// The panicked step must not appear as a completed result, and the
	// cursor must not advance past it.
	for _, r := range vp.Results {
		if r.Step == 1 {
			t.Fatal("panicked step recorded as completed")
		}
	}
	if vp.NextStep() != 1 {
		t.Fatalf("NextStep = %d, want 1 (panicked step incomplete)", vp.NextStep())
	}
	var ev *journal.Event
	for i, e := range jw.Events() {
		if e.Type == journal.TypeError && strings.Contains(e.Detail, "panic contained") {
			ev = &jw.Events()[i]
		}
	}
	if ev == nil || !strings.Contains(ev.Err, "injected analysis panic") ||
		!strings.Contains(ev.Err, "goroutine") {
		t.Fatalf("panic error event missing stack: %+v", ev)
	}
}

func TestSimPanicContained(t *testing.T) {
	jw := journal.New()
	src := &FuncSource{N: 2, Fn: func(step int) (data.Dataset, error) {
		if step == 1 {
			panic("injected source panic")
		}
		return testCloud(10, 1), nil
	}}
	sp, err := NewSimProxy(SimConfig{Journal: jw}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.StepData(0); err != nil {
		t.Fatalf("step 0: %v", err)
	}
	if _, err := sp.StepData(1); !errors.Is(err, ErrPanic) {
		t.Fatalf("step 1 err = %v, want ErrPanic", err)
	}
}

func TestVizCursorPersistsAndResumes(t *testing.T) {
	cfg := VizConfig{Width: 16, Height: 16, Algorithm: "points", Journal: journal.New()}
	vp, err := NewVizProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vp.NextStep() != 0 {
		t.Fatalf("fresh NextStep = %d", vp.NextStep())
	}
	for step := 0; step < 3; step++ {
		if _, err := vp.RenderStep(step, testCloud(40, int64(step))); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint event per completed step.
	events := cfg.Journal.Events()
	var ckpts int
	for _, ev := range events {
		if ev.Type == journal.TypeCheckpoint {
			ckpts++
		}
	}
	if ckpts != 3 {
		t.Fatalf("checkpoint events = %d, want 3", ckpts)
	}
	if c := journal.Cursor(events, 0); c != 3 {
		t.Fatalf("journal cursor = %d, want 3", c)
	}

	// A second incarnation started at the journal's cursor resumes at step 3.
	cfg.Start = journal.Cursor(events, 0)
	vp2, err := NewVizProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vp2.NextStep() != 3 {
		t.Fatalf("resumed NextStep = %d, want 3", vp2.NextStep())
	}
}
