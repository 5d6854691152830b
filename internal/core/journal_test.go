package core

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/journal"
)

// The acceptance criterion for the run journal: on a single-pair unified
// run, the per-phase span totals reconstructed from the trace file must
// sum to within 10% of the measured wall time, and replaying the file
// must reproduce exactly the breakdown the harness computed in memory.
func TestJournalPhaseBreakdownCoversWall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	jw, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMeasured(MeasuredSpec{
		// Enough particles that generate+sample+render dwarf the harness's
		// own bookkeeping, keeping the timing stable across machines.
		Workload:      HACCWorkload(60_000, 2, 3),
		Algorithm:     "raycast",
		Width:         96,
		Height:        96,
		ImagesPerStep: 2,
		Ranks:         1,
		Journal:       jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	var phaseSum time.Duration
	for _, d := range res.Phases {
		phaseSum += d
	}
	if res.Wall <= 0 {
		t.Fatal("no wall time recorded")
	}
	cover := float64(phaseSum) / float64(res.Wall)
	if math.Abs(1-cover) > 0.10 {
		t.Errorf("phase totals cover %.1f%% of wall (%v of %v), want within 10%%",
			100*cover, phaseSum, res.Wall)
	}
	for _, phase := range []string{journal.PhaseGenerate, journal.PhaseSample, journal.PhaseRender} {
		if res.Phases[phase] <= 0 {
			t.Errorf("phase %q recorded no time", phase)
		}
	}

	// Replay: reading the trace file back must reconstruct the same
	// breakdown the harness reported.
	events, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != jw.Len() {
		t.Fatalf("replayed %d events, run recorded %d", len(events), jw.Len())
	}
	replayed := journal.Breakdown(events)
	if len(replayed) != len(res.Phases) {
		t.Fatalf("replayed %d phases, run recorded %d", len(replayed), len(res.Phases))
	}
	for name, d := range res.Phases {
		if replayed[name] != d {
			t.Errorf("phase %s: replayed %v, run recorded %v", name, replayed[name], d)
		}
	}
	if w := journal.Wall(events); w != res.Wall {
		t.Errorf("replayed wall %v, run recorded %v", w, res.Wall)
	}
}

// Socket-mode runs must additionally journal the serialize and transport
// phases, since the payload crosses the real wire path.
func TestJournalSocketModePhases(t *testing.T) {
	spec := haccSpec()
	spec.Mode = coupling.Socket
	spec.LayoutPath = filepath.Join(t.TempDir(), "layout")
	spec.Journal = journal.New()
	res, err := RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{journal.PhaseSerialize, journal.PhaseTransport} {
		if res.Phases[phase] <= 0 {
			t.Errorf("socket run recorded no %s time", phase)
		}
	}
	counts := journal.CountByType(spec.Journal.Events())
	// Each of 2 ranks x 2 steps serializes once and transfers twice (a
	// send event on the sim side, a recv event on the viz side).
	if counts[journal.TypeSerialize] != 4 {
		t.Errorf("serialize events = %d, want 4", counts[journal.TypeSerialize])
	}
	if counts[journal.TypeTransfer] != 8 {
		t.Errorf("transfer events = %d, want 8", counts[journal.TypeTransfer])
	}
}

// Multi-rank runs must aggregate the per-pair coupling reports into the
// result: interface traffic and render time sum across ranks, elements
// sum across the last step's per-rank partitions, and every rank
// contributes a frame.
func TestRunMeasuredAggregatesReports(t *testing.T) {
	const ranks = 3
	spec := MeasuredSpec{
		Workload:      HACCWorkload(6000, 2, 11),
		Algorithm:     "points",
		Width:         48,
		Height:        48,
		ImagesPerStep: 2,
		Ranks:         ranks,
		Mode:          coupling.Socket,
		LayoutPath:    filepath.Join(t.TempDir(), "layout"),
	}
	res, err := RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != ranks {
		t.Fatalf("reports = %d, want %d", len(res.Reports), ranks)
	}
	if len(res.Frames) != ranks {
		t.Errorf("frames = %d, want %d", len(res.Frames), ranks)
	}

	var bytesMoved int64
	var renderTime time.Duration
	elements := 0
	for _, rep := range res.Reports {
		if rep.BytesMoved <= 0 {
			t.Error("a socket pair moved no bytes")
		}
		if rep.Steps != spec.Workload.Steps {
			t.Errorf("pair ran %d steps, want %d", rep.Steps, spec.Workload.Steps)
		}
		bytesMoved += rep.BytesMoved
		renderTime += rep.Viz.TotalRenderTime()
		n := len(rep.Viz.Results)
		elements += rep.Viz.Results[n-1].Elements
	}
	if res.BytesMoved != bytesMoved {
		t.Errorf("BytesMoved = %d, per-pair sum = %d", res.BytesMoved, bytesMoved)
	}
	if res.RenderTime != renderTime {
		t.Errorf("RenderTime = %v, per-pair sum = %v", res.RenderTime, renderTime)
	}
	if res.Elements != elements {
		t.Errorf("Elements = %d, per-pair sum = %d", res.Elements, elements)
	}
	// The ranks partition the particles, so the last step's elements must
	// equal the full particle count (no sampling configured).
	if elements != 6000 {
		t.Errorf("per-rank elements sum to %d, want 6000", elements)
	}

	// Multi-rank runs composite; the final frame is present and the
	// schedule reports its communication.
	if res.Composited == nil {
		t.Fatal("no composited frame")
	}
	if res.CompositeStats.MessagesMoved == 0 {
		t.Error("composite reported no messages")
	}
	if res.Phases[journal.PhaseComposite] <= 0 {
		t.Error("no composite time journaled")
	}
}
