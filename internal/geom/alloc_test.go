package geom

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// quietAllocs sets up an exact allocation count: GOMAXPROCS 1, where par
// runs its loops inline, and the collector off, because AllocsPerRun
// counts mallocs process-wide and a collection that starts inside a run
// allocates its own bookkeeping.
func quietAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestIsoDrawWarmAllocs gates the geometry path's garbage: extracting an
// isosurface and drawing it on a warm Scratch — what vtk-iso does per
// image — allocates the same four small objects whether the surface has
// 28 thousand triangles or 126 thousand. Mesh, edge cache, vertex
// classes, screen vertices, flags and triangle list are the Scratch's
// own; what is left is Isosurface's per-vertex closure and the price of
// DrawMesh calling par: the body closure, the grain, and the projector
// the body captures by reference. The lighting the body reads is a value
// it captures by copy.
func TestIsoDrawWarmAllocs(t *testing.T) {
	quietAllocs(t)
	const want = 4
	frame := fb.New(256, 256)
	var s Scratch
	for _, c := range []struct{ epoch, minTris, maxTris int }{{0, 20_000, 40_000}, {11, 100_000, 150_000}} {
		whole, err := blast.Generate(blast.Params{NX: 130, NY: 79, NZ: 68, BoxSize: 10, Seed: 1, TimeStep: c.epoch})
		if err != nil {
			t.Fatal(err)
		}
		g := whole.Partition(2)[0].(*data.StructuredGrid)
		cam := camera.ForBounds(g.Bounds())
		tris := 0
		render := func() {
			m, err := s.Isosurface(g, "temperature", 0.25)
			if err != nil {
				t.Fatal(err)
			}
			frame.Clear(vec.V3{})
			s.DrawMesh(frame, m, &cam, ShadeOptions{Colormap: fb.Hot, ScalarLo: 0, ScalarHi: 1})
			tris = m.TriangleCount()
		}
		render() // grow the scratch to this surface's size, if it must
		if allocs := testing.AllocsPerRun(5, render); allocs != want {
			t.Errorf("epoch %d, %d triangles: a warm Scratch's Isosurface + DrawMesh allocates %.1f times, want exactly %d", c.epoch, tris, allocs, want)
		}
		if tris < c.minTris || tris > c.maxTris {
			t.Errorf("epoch %d: %d triangles, want %d..%d: the gate is not measuring the sizes it names", c.epoch, tris, c.minTris, c.maxTris)
		}
	}
}

// TestMapPointsWarmAllocs holds the points mapper, on a ParticleScratch whose
// sprites, flags and colour table are its own, at the six allocations it
// made before it projected through a camera.Projector: two par loops,
// each a body closure and a grain, par.For's index adapter for the colour
// loop, and the projector the projection loop captures by reference.
func TestMapPointsWarmAllocs(t *testing.T) {
	quietAllocs(t)
	const want = 6
	p := data.NewPointCloud(20_000)
	for i := 0; i < p.Count(); i++ {
		p.SetPos(i, vec.New(float64(i%100), float64((i/100)%100), float64(i/10_000)))
		p.SetVel(i, vec.New(float64(i), 0, 0))
	}
	p.SpeedField()
	cam := camera.ForBounds(p.Bounds())
	var s ParticleScratch
	mapPoints := func() {
		if _, err := s.MapPoints(p, &cam, 256, 256, PointsOptions{ColorField: "speed"}); err != nil {
			t.Fatal(err)
		}
	}
	mapPoints()
	if allocs := testing.AllocsPerRun(10, mapPoints); allocs != want {
		t.Errorf("a warm ParticleScratch's MapPoints allocates %.1f times, want exactly %d", allocs, want)
	}
}
