package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// The TACC-Stats analog must observe a measured run: counters for rays,
// sprites/impostors, triangles, steps, and images all advance.
func TestTelemetryCountersAdvanceDuringRuns(t *testing.T) {
	before := telemetry.Default.Snapshot()

	// Particle run with raycasting (rays + hits) ...
	if _, err := RunMeasured(MeasuredSpec{
		Workload:      HACCWorkload(3000, 1, 5),
		Algorithm:     "raycast",
		Width:         48,
		Height:        48,
		ImagesPerStep: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// ... a points run (sprites), a splat run (impostors) ...
	for _, alg := range []string{"points", "gsplat"} {
		if _, err := RunMeasured(MeasuredSpec{
			Workload:      HACCWorkload(3000, 1, 5),
			Algorithm:     alg,
			Width:         48,
			Height:        48,
			ImagesPerStep: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// ... and a volume run with both pipelines (triangles, march steps).
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		if _, err := RunMeasured(MeasuredSpec{
			Workload:      XRAGEWorkload(24, 16, 14, 1, 5),
			Algorithm:     alg,
			Width:         48,
			Height:        48,
			ImagesPerStep: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}

	delta := telemetry.Default.Snapshot().Delta(before)
	for _, name := range []string{
		"rt.rays", "rt.hits", "rt.march_steps",
		"geom.sprites", "geom.impostors", "geom.triangles", "geom.shaded",
		"proxy.steps", "proxy.images",
	} {
		if delta[name] <= 0 {
			t.Errorf("counter %s did not advance (delta %d)", name, delta[name])
		}
	}
	// Structural cross-checks: images >= steps; rays >= hits.
	if delta["proxy.images"] < delta["proxy.steps"] {
		t.Error("images < steps")
	}
	if delta["rt.rays"] < delta["rt.hits"] {
		t.Error("more hits than rays")
	}
}

// Each stage is timed once: the journal event. Over a run that touches
// every phase, each phase.<p> histogram must move by exactly the count
// and duration sum of the journal's timed events of that phase. No
// t.Parallel: the histograms are process-wide.
func TestPhaseHistogramsMatchJournal(t *testing.T) {
	var buf bytes.Buffer
	spec := haccSpec()
	spec.Mode = coupling.Socket
	spec.Codec = "delta+flate"
	spec.LayoutPath = filepath.Join(t.TempDir(), "layout")
	spec.Operations = []proxy.Operation{&proxy.StatsOperation{}}
	spec.Journal = journal.NewWriter(&buf)
	type tally struct{ count, sum int64 }
	hist := func() map[string]tally {
		m := map[string]tally{}
		for _, p := range journal.Phases {
			h := telemetry.Default.Histogram("phase." + p)
			m[p] = tally{h.Count(), h.Sum()}
		}
		return m
	}
	before := hist()
	if _, err := RunMeasured(spec); err != nil {
		t.Fatal(err)
	}
	after := hist()
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]tally{}
	for _, ev := range events {
		if ev.Phase != "" && ev.DurNS > 0 {
			w := want[ev.Phase]
			want[ev.Phase] = tally{w.count + 1, w.sum + ev.DurNS}
		}
	}
	for _, p := range journal.Phases {
		got := tally{after[p].count - before[p].count, after[p].sum - before[p].sum}
		if want[p].count == 0 {
			t.Errorf("phase %s: the run journaled no timed event", p)
		}
		if got != want[p] {
			t.Errorf("phase.%s moved by %d events, %d ns; the journal holds %d, %d ns",
				p, got.count, got.sum, want[p].count, want[p].sum)
		}
	}
}
