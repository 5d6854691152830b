package raster

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

// approxColor reports whether two colors match within rasterization
// rounding (barycentric weights sum to 1 only approximately).
func approxColor(a, b vec.V3) bool { return a.Sub(b).Len() < 1e-9 }

// soup lays triangles given corner by corner out the way DrawTriangles
// takes them, each with three vertices of its own.
func soup(tris ...[3]Vertex) ([]Vertex, [][3]int32) {
	verts := make([]Vertex, 0, 3*len(tris))
	idx := make([][3]int32, len(tris))
	for i, t := range tris {
		verts = append(verts, t[:]...)
		idx[i] = [3]int32{int32(3 * i), int32(3*i + 1), int32(3*i + 2)}
	}
	return verts, idx
}

// drawSoup draws triangles given corner by corner.
func drawSoup(f *fb.Frame, workers int, tris ...[3]Vertex) {
	verts, idx := soup(tris...)
	DrawTriangles(f, verts, idx, workers)
}

func fullscreenTriangle(depth float64, c vec.V3) [3]Vertex {
	// Covers a 64x64 frame entirely.
	return [3]Vertex{
		{X: -70, Y: -70, Depth: depth, Color: c},
		{X: 200, Y: -70, Depth: depth, Color: c},
		{X: -70, Y: 200, Depth: depth, Color: c},
	}
}

func TestTriangleCoversInterior(t *testing.T) {
	f := fb.New(64, 64)
	red := vec.New(1, 0, 0)
	tri := [3]Vertex{
		{X: 8, Y: 8, Depth: 1, Color: red},
		{X: 56, Y: 8, Depth: 1, Color: red},
		{X: 32, Y: 56, Depth: 1, Color: red},
	}
	drawSoup(f, 1, tri)
	if !approxColor(f.At(32, 20), red) {
		t.Error("interior pixel not filled")
	}
	if f.At(2, 2) != (vec.V3{}) {
		t.Error("exterior pixel filled")
	}
	if f.CoveredPixels() == 0 {
		t.Error("nothing rasterized")
	}
}

func TestTriangleBothWindings(t *testing.T) {
	f := fb.New(64, 64)
	c := vec.New(0, 1, 0)
	// Clockwise winding (negative area) must still fill.
	tri := [3]Vertex{
		{X: 8, Y: 8, Depth: 1, Color: c},
		{X: 32, Y: 56, Depth: 1, Color: c},
		{X: 56, Y: 8, Depth: 1, Color: c},
	}
	drawSoup(f, 1, tri)
	if !approxColor(f.At(32, 20), c) {
		t.Error("clockwise triangle not rasterized")
	}
}

func TestTriangleDepthOrdering(t *testing.T) {
	f := fb.New(64, 64)
	red := vec.New(1, 0, 0)
	blue := vec.New(0, 0, 1)
	// Draw far first, then near: near must win. Then redraw far: near stays.
	drawSoup(f, 2, fullscreenTriangle(10, red))
	drawSoup(f, 2, fullscreenTriangle(5, blue))
	drawSoup(f, 2, fullscreenTriangle(8, red))
	if !approxColor(f.At(32, 32), blue) {
		t.Errorf("depth test failed: got %v", f.At(32, 32))
	}
}

func TestTriangleGouraudInterpolation(t *testing.T) {
	f := fb.New(64, 64)
	tri := [3]Vertex{
		{X: 0, Y: 0, Depth: 1, Color: vec.New(1, 0, 0)},
		{X: 63, Y: 0, Depth: 1, Color: vec.New(0, 1, 0)},
		{X: 0, Y: 63, Depth: 1, Color: vec.New(0, 0, 1)},
	}
	drawSoup(f, 1, tri)
	// Near vertex 0 the color should be mostly red.
	c := f.At(2, 2)
	if c.X < 0.8 {
		t.Errorf("corner color = %v, want mostly red", c)
	}
	// Centroid-ish pixel should be a genuine mix.
	m := f.At(20, 20)
	if m.X == 0 || m.Y == 0 || m.Z == 0 {
		t.Errorf("interior color = %v, want mixed", m)
	}
	// Channel sum stays ~1 anywhere inside (barycentric partition of unity).
	if s := m.X + m.Y + m.Z; math.Abs(s-1) > 1e-9 {
		t.Errorf("color sum = %v, want 1", s)
	}
}

func TestDegenerateTriangleIgnored(t *testing.T) {
	f := fb.New(32, 32)
	tri := [3]Vertex{
		{X: 1, Y: 1, Depth: 1},
		{X: 10, Y: 10, Depth: 1},
		{X: 20, Y: 20, Depth: 1}, // collinear
	}
	drawSoup(f, 1, tri)
	if f.CoveredPixels() != 0 {
		t.Error("degenerate triangle rasterized pixels")
	}
}

func TestOffscreenTriangleIgnored(t *testing.T) {
	f := fb.New(32, 32)
	drawSoup(f, 2,
		[3]Vertex{{X: -100, Y: -100, Depth: 1}, {X: -50, Y: -100, Depth: 1}, {X: -75, Y: -50, Depth: 1}},
		[3]Vertex{{X: 10, Y: 500, Depth: 1}, {X: 20, Y: 500, Depth: 1}, {X: 15, Y: 600, Depth: 1}},
	)
	if f.CoveredPixels() != 0 {
		t.Error("offscreen triangles rasterized pixels")
	}
}

func TestNegativeDepthRejected(t *testing.T) {
	f := fb.New(32, 32)
	drawSoup(f, 1, fullscreenTriangle(-5, vec.New(1, 1, 1)))
	if f.CoveredPixels() != 0 {
		t.Error("behind-camera depth rasterized")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// Same triangle set with 1 worker and 8 workers must produce the
	// identical image (bands are deterministic and disjoint).
	mk := func(workers int) *fb.Frame {
		f := fb.New(128, 128)
		var tris [][3]Vertex
		for i := 0; i < 50; i++ {
			fi := float64(i)
			tris = append(tris, [3]Vertex{
				{X: 10 + fi, Y: 5 + fi*2, Depth: 1 + fi, Color: vec.New(1, 0, 0)},
				{X: 60 + fi, Y: 15 + fi, Depth: 2 + fi, Color: vec.New(0, 1, 0)},
				{X: 30, Y: 100 - fi, Depth: 3, Color: vec.New(0, 0, 1)},
			})
		}
		drawSoup(f, workers, tris...)
		return f
	}
	a, b := mk(1), mk(8)
	for i := range a.Color {
		if a.Color[i] != b.Color[i] || a.Depth[i] != b.Depth[i] {
			t.Fatalf("parallel mismatch at pixel %d", i)
		}
	}
}

func TestSpritesBasic(t *testing.T) {
	f := fb.New(32, 32)
	c := vec.New(1, 1, 0)
	DrawSprites(f, []Sprite{{X: 16, Y: 16, Depth: 1, Size: 3, Color: c}}, 1)
	if f.At(16, 16) != c {
		t.Error("sprite center not drawn")
	}
	if got := f.CoveredPixels(); got != 9 {
		t.Errorf("3x3 sprite covered %d pixels", got)
	}
}

func TestSpriteSize1(t *testing.T) {
	f := fb.New(16, 16)
	DrawSprites(f, []Sprite{{X: 8, Y: 8, Depth: 1, Size: 0, Color: vec.New(1, 0, 0)}}, 1)
	if f.CoveredPixels() != 1 {
		t.Errorf("size<=1 sprite covered %d pixels", f.CoveredPixels())
	}
}

func TestSpriteDepthTest(t *testing.T) {
	f := fb.New(16, 16)
	near := vec.New(0, 1, 0)
	far := vec.New(1, 0, 0)
	DrawSprites(f, []Sprite{
		{X: 8, Y: 8, Depth: 2, Size: 1, Color: near},
		{X: 8, Y: 8, Depth: 5, Size: 1, Color: far},
	}, 1)
	if f.At(8, 8) != near {
		t.Error("sprite depth test failed")
	}
}

func TestSpriteClipping(t *testing.T) {
	f := fb.New(16, 16)
	// Sprites straddling the border and fully outside must not panic.
	DrawSprites(f, []Sprite{
		{X: 0, Y: 0, Depth: 1, Size: 5, Color: vec.New(1, 1, 1)},
		{X: -100, Y: -100, Depth: 1, Size: 3, Color: vec.New(1, 1, 1)},
		{X: 15.9, Y: 15.9, Depth: 1, Size: 5, Color: vec.New(1, 1, 1)},
	}, 2)
	if f.CoveredPixels() == 0 {
		t.Error("border sprites drew nothing")
	}
}

// TestSpriteFrameEdges places sprites just outside and just inside each
// edge of the frame: a sprite paints the pixels whose centres its square
// covers, so one whose square stops short of the first centre paints
// nothing, however close it is to the edge. (A sprite's corner was once
// rounded toward zero, which pulled squares at -0.7 or -0.2 onto the
// first column or row.)
func TestSpriteFrameEdges(t *testing.T) {
	const w, h = 24, 2*DefaultBandHeight + 3
	for _, c := range []struct {
		x, y    float64
		size    int
		covered int // pixels in the frame
	}{
		{-0.7, 9, 1, 0}, {-0.2, 9, 1, 0}, {0.2, 9, 1, 1}, {-1.2, 9, 3, 0}, {-0.9, 9, 3, 3},
		{w + 0.2, 9, 1, 0}, {w - 0.2, 9, 1, 1}, {w + 1.2, 9, 3, 0}, {w + 0.9, 9, 3, 3},
		{9, -0.7, 1, 0}, {9, -0.2, 1, 0}, {9, 0.2, 1, 1}, {9, -1.2, 3, 0}, {9, -0.9, 3, 3},
		{9, h + 0.2, 1, 0}, {9, h - 0.2, 1, 1}, {9, h + 1.2, 3, 0}, {9, h + 0.9, 3, 3},
		{-0.2, -0.2, 2, 1}, {w - 0.1, h - 0.1, 2, 1},
	} {
		for _, workers := range []int{1, 2} {
			f := fb.New(w, h)
			DrawSprites(f, []Sprite{{X: c.x, Y: c.y, Depth: 1, Size: c.size, Color: vec.New(1, 1, 1)}}, workers)
			if got := f.CoveredPixels(); got != c.covered {
				t.Errorf("size-%d sprite at (%g, %g), %d workers: %d pixels covered, want %d", c.size, c.x, c.y, workers, got, c.covered)
			}
		}
	}
}

func TestImpostorShading(t *testing.T) {
	f := fb.New(64, 64)
	white := vec.New(1, 1, 1)
	DrawImpostors(f, []Impostor{
		{X: 32, Y: 32, Depth: 10, Radius: 20, WorldRadius: 1, Color: white},
	}, vec.New(0, 0, 1), 1)
	// Center faces the light directly: brightest.
	center := f.At(32, 32)
	edgePix := f.At(32+17, 32)
	if center.X <= edgePix.X {
		t.Errorf("center %v not brighter than edge %v", center, edgePix)
	}
	// The disk must be round: corners of the bounding square are empty.
	if f.At(32+19, 32+19) != (vec.V3{}) {
		t.Error("impostor filled its bounding-square corner")
	}
	// Depth bulge: center depth < rim depth (closer to viewer).
	ci := f.Index(32, 32)
	ri := f.Index(32+17, 32)
	if f.Depth[ci] >= f.Depth[ri] {
		t.Errorf("sphere depth not bulged: center %v rim %v", f.Depth[ci], f.Depth[ri])
	}
}

func TestImpostorOcclusion(t *testing.T) {
	f := fb.New(64, 64)
	red := vec.New(1, 0, 0)
	blue := vec.New(0, 0, 1)
	DrawImpostors(f, []Impostor{
		{X: 32, Y: 32, Depth: 10, Radius: 10, WorldRadius: 0.5, Color: red},
		{X: 32, Y: 32, Depth: 5, Radius: 10, WorldRadius: 0.5, Color: blue},
	}, vec.New(0, 0, 1), 1)
	c := f.At(32, 32)
	// The nearer (blue) sphere must win; shading scales it but hue remains.
	if c.Z == 0 || c.X != 0 {
		t.Errorf("occlusion failed: center = %v", c)
	}
}

func TestEmptyInputsNoop(t *testing.T) {
	f := fb.New(8, 8)
	DrawTriangles(f, nil, nil, 0)
	DrawSprites(f, nil, 0)
	DrawImpostors(f, nil, vec.New(0, 0, 1), 0)
	if f.CoveredPixels() != 0 {
		t.Error("empty draws covered pixels")
	}
}

func BenchmarkSprites(b *testing.B) {
	f := fb.New(512, 512)
	sprites := make([]Sprite, 100_000)
	for i := range sprites {
		sprites[i] = Sprite{
			X: float64(i % 512), Y: float64((i / 512) % 512),
			Depth: 1, Size: 2, Color: vec.New(1, 1, 1),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DrawSprites(f, sprites, 0)
	}
}
