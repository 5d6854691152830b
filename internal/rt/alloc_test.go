package rt

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestBuildAllocsIndependentOfN gates the build's allocation count: the
// header, the primitive slice, the node slice and the one block of build
// scratch, whatever the particle count — no per-node, per-range or
// per-axis scratch.
func TestBuildAllocsIndependentOfN(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	// AllocsPerRun counts mallocs process-wide, and a collection that
	// starts inside a run allocates its own bookkeeping.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const want = 4
	for _, n := range []int{1_000, 50_000} {
		p := randomCloud(n, 6)
		if allocs := testing.AllocsPerRun(3, func() { BuildSphereBVH(p, 0.1, MedianSplit) }); allocs != want {
			t.Errorf("n=%d: build allocates %.0f times, want exactly %d", n, allocs, want)
		}
	}
}

// TestRebuildAllocs holds a rebuild into a tree's own arrays at exactly
// zero allocations, for the cloud the tree was built over and for a
// smaller one, and requires the rebuilt tree to be the one a fresh build
// makes.
func TestRebuildAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	big, small := randomCloud(50_000, 6), randomCloud(1_000, 7)
	b := BuildSphereBVH(big, 0.1, MedianSplit)
	for _, tc := range []struct {
		name string
		p    *data.PointCloud
	}{{"same", big}, {"smaller", small}} {
		if allocs := testing.AllocsPerRun(3, func() { b.Rebuild(tc.p, 0.2) }); allocs != 0 {
			t.Errorf("%s cloud: rebuild allocates %.0f times, want exactly 0", tc.name, allocs)
		}
		want := BuildSphereBVH(tc.p, 0.2, MedianSplit)
		if !reflect.DeepEqual(b.nodes, want.nodes) || !reflect.DeepEqual(b.prims, want.prims) ||
			b.radius != want.radius || b.NodesBuilt != want.NodesBuilt {
			t.Errorf("%s cloud: rebuilt tree differs from a fresh build", tc.name)
		}
	}
}

// TestRaycastWarmAllocs gates the per-frame allocations of the sphere
// path at GOMAXPROCS 1, where par runs its loops inline. Traversal itself
// allocates nothing. A warm frame on a Scratch, whose colour table is
// its own, allocates exactly six small objects,
// none of which scales with pixels, particles or nodes — all are the price
// of calling par: for each of the two loops (colour table, scanline
// bands) the body closure and the grain par.ForGrained moves to the heap
// for its workers, plus par.For's index adapter and the RayGen the band
// closure captures by reference.
func TestRaycastWarmAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := randomCloud(5_000, 8)
	p.SpeedField()
	cam := camera.ForBounds(p.Bounds())
	bvh := BuildSphereBVH(p, 0.3, MedianSplit)

	gen := cam.NewRayGen(32, 32)
	hits := 0
	trace := func() {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				ray := gen.Ray(x, y)
				if _, ok := bvh.Intersect(ray.Origin, ray.Dir, cam.Near, math.Inf(1)); ok {
					hits++
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, trace); allocs != 0 {
		t.Errorf("Intersect allocates %.1f times per 1024 rays, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("no ray hit: the traversal gate measured nothing")
	}

	const want = 6
	frame := fb.New(96, 96)
	var s Scratch
	render := func() {
		frame.Clear(vec.V3{})
		if err := s.RaycastSpheresWithBVH(frame, p, bvh, &cam, SphereOptions{ColorField: "speed"}); err != nil {
			t.Fatal(err)
		}
	}
	render() // grow the colour table
	if allocs := testing.AllocsPerRun(10, render); allocs != want {
		t.Errorf("warm RaycastSpheresWithBVH allocates %.1f times per frame, want exactly %d", allocs, want)
	}
}
