package raster

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

func allocTriangles(n int) ([]Vertex, [][3]int32) {
	tris := make([][3]Vertex, n)
	for i := range tris {
		x := float64(8 + (i*13)%100)
		y := float64(8 + (i*7)%100)
		tris[i] = [3]Vertex{
			{X: x, Y: y, Depth: 1 + float64(i)*0.01, Color: vec.New(1, 0.5, 0.2)},
			{X: x + 10, Y: y + 2, Depth: 1.1, Color: vec.New(0.2, 0.5, 1)},
			{X: x + 4, Y: y + 9, Depth: 1.2, Color: vec.New(0.5, 1, 0.2)},
		}
	}
	return soup(tris...)
}

// TestDrawSteadyStateAllocs locks in the zero-allocation steady state of
// the one-worker rasterizers: they draw each primitive straight into the
// frame, with no bins and no scratch, so a re-render into an existing
// frame must not allocate. (More workers bin through a Bins and allocate
// the par.For closures and goroutine bookkeeping by design.)
func TestDrawSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	frame := fb.New(128, 128)
	verts, tris := allocTriangles(500)
	sprites := make([]Sprite, 500)
	for i := range sprites {
		sprites[i] = Sprite{X: float64(i % 120), Y: float64((i * 7) % 120), Depth: 1, Size: 2, Color: vec.New(1, 1, 1)}
	}
	imps := make([]Impostor, 500)
	for i := range imps {
		imps[i] = Impostor{X: float64(i % 120), Y: float64((i * 7) % 120), Depth: 1, Radius: 2, WorldRadius: 0.1, Color: vec.New(1, 1, 1)}
	}

	var bins Bins
	cases := []struct {
		name string
		draw func()
	}{
		{"triangles", func() { bins.DrawTriangles(frame, verts, tris, 1) }},
		{"sprites", func() { DrawSprites(frame, sprites, 1) }},
		{"impostors", func() { bins.DrawImpostors(frame, imps, vec.New(0, 0, 1), 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			redraw := func() {
				frame.Clear(vec.V3{})
				tc.draw()
			}
			redraw()
			if allocs := testing.AllocsPerRun(20, redraw); allocs > 0 {
				t.Errorf("steady-state redraw allocates %.1f times per op, want 0", allocs)
			}
		})
	}
}
