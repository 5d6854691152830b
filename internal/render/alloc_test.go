package render

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestVtkRenderWarmAllocs gates the geometry renderers as the proxy calls
// them: each hands its mesh back to geom after drawing, so a warm Render
// allocates a handful of closures (counted in internal/geom's gate; the
// slice's three more are its parallel distance pass) and nothing that
// grows with the surface. A renderer that kept its mesh would regrow one
// every image — dozens of allocations, megabytes.
func TestVtkRenderWarmAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// AllocsPerRun counts mallocs process-wide, and a collection inside a
	// run would also empty the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := testGrid(40)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(128, 128)
	for name, want := range map[string]float64{"vtk-iso": 5, "vtk-slice": 8} {
		r, _ := New(name)
		render := func() {
			frame.Clear(vec.V3{})
			st, err := r.Render(frame, g, &cam, Options{IsoValue: 0.12, ScalarLo: 0, ScalarHi: 1})
			if err != nil || st.Primitives == 0 {
				t.Fatalf("%s: %d primitives, error %v", name, st.Primitives, err)
			}
		}
		render() // grow the pooled mesh and scratch to this surface's size
		if allocs := testing.AllocsPerRun(5, render); allocs != want {
			t.Errorf("warm %s Render allocates %.1f times, want exactly %.0f", name, allocs, want)
		}
	}
}
