package core

import (
	"testing"

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
