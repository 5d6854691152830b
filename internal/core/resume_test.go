package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
)

// failAt is an analysis operation that fails at one step, after the
// step's images rendered but before its checkpoint.
type failAt struct{ step int }

func (o failAt) Name() string { return "fail-at" }
func (o failAt) Apply(ctx proxy.OpContext, ds data.Dataset) (proxy.OpResult, error) {
	if ctx.Step == o.step {
		return proxy.OpResult{}, errors.New("injected analysis failure")
	}
	return proxy.OpResult{Op: o.Name(), Summary: "ok"}, nil
}

// TestRunMeasuredResumesFromJournal is run-level resume end to end: a
// run that fails at step k leaves a file journal whose checkpoints say
// steps 0..k-1 are done; RunMeasured over the replayed events renders
// exactly steps k..n-1, into the same journal, and its final frame is
// byte-identical to an undisturbed run's.
func TestRunMeasuredResumesFromJournal(t *testing.T) {
	const steps, k = 4, 2
	dir := t.TempDir()
	spec := func(out string, jw *journal.Writer) MeasuredSpec {
		return MeasuredSpec{
			Workload:  HACCWorkload(3000, steps, 5),
			Algorithm: "points", Width: 32, Height: 32, ImagesPerStep: 1,
			OutDir: filepath.Join(dir, out), Journal: jw,
		}
	}
	path := filepath.Join(dir, "run.jsonl")
	jw, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	failing := spec("failed", jw)
	failing.Operations = []proxy.Operation{failAt{step: k}}
	if _, err := RunMeasured(failing); err == nil {
		t.Fatal("run with a failing operation succeeded")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	jw, events, err := journal.Reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := journal.Cursor(events, 0); c != k {
		t.Fatalf("failed run's cursor = %d, want %d", c, k)
	}
	resumed := spec("resumed", jw)
	resumed.Resume = events
	res, err := RunMeasured(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	var rendered []int
	for _, r := range res.Reports[0].Viz.Results {
		rendered = append(rendered, r.Step)
	}
	if want := []int{2, 3}; !slices.Equal(rendered, want) {
		t.Errorf("resumed run rendered steps %v, want %v", rendered, want)
	}
	pngs, _ := filepath.Glob(filepath.Join(dir, "resumed", "*.png"))
	if len(pngs) != steps-k {
		t.Errorf("resumed run wrote %d frames, want %d", len(pngs), steps-k)
	}
	events, err = journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := journal.Cursor(events, 0); c != steps {
		t.Errorf("journal cursor after the resumed run = %d, want %d", c, steps)
	}

	if _, err := RunMeasured(spec("undisturbed", nil)); err != nil {
		t.Fatal(err)
	}
	final := fmt.Sprintf("step%03d_img000_rank0.png", steps-1)
	want, err := os.ReadFile(filepath.Join(dir, "undisturbed", final))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "resumed", final))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed run's final frame differs from the undisturbed run's")
	}
}
