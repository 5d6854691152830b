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
// them: each extracts into and draws from its own geom.Scratch, so a warm
// Render allocates a handful of closures (counted in internal/geom's gate;
// the slice's three more are its parallel distance pass) and nothing that
// grows with the surface. A renderer that built a fresh mesh per image
// would regrow one every image — dozens of allocations, megabytes.
func TestVtkRenderWarmAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// AllocsPerRun counts mallocs process-wide, and a collection inside a
	// run allocates its own bookkeeping.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := testGrid(40)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(128, 128)
	for name, want := range map[string]float64{"vtk-iso": 4, "vtk-slice": 7} {
		r, _ := New(name)
		render := func() {
			frame.Clear(vec.V3{})
			st, err := r.Render(frame, g, &cam, Options{IsoValue: 0.12, ScalarLo: 0, ScalarHi: 1})
			if err != nil || st.Primitives == 0 {
				t.Fatalf("%s: %d primitives, error %v", name, st.Primitives, err)
			}
		}
		render() // grow the renderer's scratch to this surface's size
		if allocs := testing.AllocsPerRun(5, render); allocs != want {
			t.Errorf("warm %s Render allocates %.1f times, want exactly %.0f", name, allocs, want)
		}
	}
}

// TestVtkRenderWarmAllocsAfterCollections holds a warm geometry
// renderer to its own memory: two collections leave it nothing to
// reallocate — its mesh, contour and draw buffers and the slice's plane
// distances are all its own — so it allocates well under a quarter of
// what a renderer starting cold allocates for the same surface.
func TestVtkRenderWarmAllocsAfterCollections(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := testGrid(40)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(128, 128)
	// allocated renders once after two collections and returns the bytes
	// it allocated.
	allocated := func(name string, r Renderer) uint64 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame.Clear(vec.V3{})
		st, err := r.Render(frame, g, &cam, Options{IsoValue: 0.12, ScalarLo: 0, ScalarHi: 1})
		runtime.ReadMemStats(&after)
		if err != nil || st.Primitives == 0 {
			t.Fatalf("%s: %d primitives, error %v", name, st.Primitives, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, name := range []string{"vtk-iso", "vtk-slice"} {
		r, _ := New(name)
		cold := allocated(name, r)
		warm := allocated(name, r)
		if warm >= cold/4 {
			t.Errorf("%s: a warm renderer allocates %d bytes after two collections, a cold one %d: want under a quarter", name, warm, cold)
		}
	}
}
