package geom

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

// sphereGrid builds a grid sampling f(p) = |p - c| so isosurfaces are
// spheres with analytically known area.
func sphereGrid(n int) *data.StructuredGrid {
	g := data.NewStructuredGrid(n, n, n)
	c := vec.Splat(float64(n-1) / 2)
	g.FillField("r", func(p vec.V3) float32 { return float32(p.Sub(c).Len()) })
	return g
}

func meshArea(m *Mesh) float64 {
	area := 0.0
	for _, t := range m.Tris {
		a := m.Verts[t[0]]
		b := m.Verts[t[1]]
		c := m.Verts[t[2]]
		area += b.Sub(a).Cross(c.Sub(a)).Len() / 2
	}
	return area
}

func TestIsosurfaceSphereArea(t *testing.T) {
	g := sphereGrid(32)
	const r = 10
	m, err := Isosurface(g, "r", r)
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() == 0 {
		t.Fatal("empty isosurface")
	}
	got := meshArea(m)
	want := 4 * math.Pi * r * r
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("sphere area = %.1f, want %.1f (+-15%%)", got, want)
	}
}

func TestIsosurfaceVerticesOnSurface(t *testing.T) {
	g := sphereGrid(24)
	const r = 8
	m, _ := Isosurface(g, "r", r)
	c := vec.Splat(float64(24-1) / 2)
	for _, v := range m.Verts {
		d := v.Sub(c).Len()
		// Linear interpolation of a slightly nonlinear field: vertices lie
		// near the sphere within a cell diagonal.
		if math.Abs(d-r) > 0.5 {
			t.Fatalf("vertex at distance %.3f, want ~%v", d, r)
		}
	}
	// Scalars are the isovalue.
	for _, s := range m.Scalars {
		if s != r {
			t.Fatalf("scalar = %v, want isovalue", s)
		}
	}
}

func TestIsosurfaceEmptyWhenOutOfRange(t *testing.T) {
	g := sphereGrid(16)
	m, err := Isosurface(g, "r", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() != 0 {
		t.Errorf("isovalue beyond field range produced %d triangles", m.TriangleCount())
	}
}

func TestIsosurfaceMissingField(t *testing.T) {
	g := sphereGrid(8)
	if _, err := Isosurface(g, "nope", 1); err == nil {
		t.Error("missing field accepted")
	}
}

func TestIsosurfaceDeterministic(t *testing.T) {
	g := sphereGrid(20)
	a, _ := Isosurface(g, "r", 6)
	b, _ := Isosurface(g, "r", 6)
	if a.TriangleCount() != b.TriangleCount() {
		t.Fatal("nondeterministic triangle count")
	}
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			t.Fatal("nondeterministic vertex order")
		}
	}
}

// TestScratchMatchesPooled holds a Scratch, reused over surfaces that
// grow, shrink and grow again, to the pooled Isosurface and DrawMesh and,
// for slices, to a fresh Scratch: the same meshes and the same pixels,
// for the smooth-shaded isosurface and the flat-shaded slice.
func TestScratchMatchesPooled(t *testing.T) {
	g := sphereGrid(24)
	cam := camera.ForBounds(g.Bounds())
	var s Scratch
	sameMesh := func(what string, got, want *Mesh) {
		t.Helper()
		if !slices.Equal(got.Verts, want.Verts) || !slices.Equal(got.Tris, want.Tris) ||
			!slices.Equal(got.Scalars, want.Scalars) || got.grid != want.grid || got.field != want.field {
			t.Fatalf("%s: Scratch mesh differs from the pooled one", what)
		}
	}
	draw := func(what string, want *Mesh, opt ShadeOptions) {
		t.Helper()
		a, b := fb.New(96, 80), fb.New(96, 80)
		s.DrawMesh(a, want, &cam, opt)
		DrawMesh(b, want, &cam, opt)
		if !slices.Equal(a.Color, b.Color) || !slices.Equal(a.Depth, b.Depth) {
			t.Fatalf("%s: Scratch.DrawMesh frame differs from DrawMesh's", what)
		}
	}
	for _, iso := range []float32{6, 2, 9, 4} {
		got, err := s.Isosurface(g, "r", iso)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Isosurface(g, "r", iso)
		sameMesh(fmt.Sprintf("isovalue %g", iso), got, want)
		draw(fmt.Sprintf("isovalue %g", iso), got, ShadeOptions{})
		PutMesh(want)
	}
	for _, z := range []float64{12, 2, 20} {
		point, normal := vec.New(12, 12, z), vec.New(0.2, 0.1, 1)
		got, err := s.SlicePlane(g, "r", point, normal)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := new(Scratch).SlicePlane(g, "r", point, normal)
		sameMesh(fmt.Sprintf("slice at z %g", z), got, want)
		draw(fmt.Sprintf("slice at z %g", z), got, ShadeOptions{Ambient: 0.95})
	}
}

func TestSlicePlaneGeometry(t *testing.T) {
	g := sphereGrid(16) // box [0,15]^3
	m, err := new(Scratch).SlicePlane(g, "r", vec.New(7.5, 7.5, 7.5), vec.New(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() == 0 {
		t.Fatal("empty slice")
	}
	// All vertices lie on the plane z = 7.5.
	for _, v := range m.Verts {
		if math.Abs(v.Z-7.5) > 1e-6 {
			t.Fatalf("slice vertex at z = %v", v.Z)
		}
	}
	// Slice area ~ box cross-section 15x15.
	got := meshArea(m)
	want := 15.0 * 15.0
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("slice area = %.1f, want %.1f", got, want)
	}
	// Scalars sample the field: center of slice ~ 0 distance... the "r"
	// field at plane center is 0, at corners ~ sqrt(2)*7.5.
	lo, hi := data.Range(m.Scalars)
	if lo > 1.5 || hi < 9 {
		t.Errorf("slice scalar range [%v, %v] implausible", lo, hi)
	}
}

func TestSlicePlaneObliqueNormal(t *testing.T) {
	g := sphereGrid(12)
	n := vec.New(1, 1, 1)
	pt := vec.New(5.5, 5.5, 5.5)
	m, err := new(Scratch).SlicePlane(g, "r", pt, n)
	if err != nil {
		t.Fatal(err)
	}
	nn := n.Norm()
	for _, v := range m.Verts {
		if d := math.Abs(v.Sub(pt).Dot(nn)); d > 1e-6 {
			t.Fatalf("oblique slice vertex off-plane by %v", d)
		}
	}
}

func TestSlicePlaneRejectsZeroNormal(t *testing.T) {
	g := sphereGrid(8)
	if _, err := new(Scratch).SlicePlane(g, "r", vec.V3{}, vec.V3{}); err == nil {
		t.Error("zero normal accepted")
	}
}

func TestMeshAppend(t *testing.T) {
	a := &Mesh{
		Verts:   []vec.V3{{X: 0}, {X: 1}, {X: 2}},
		Scalars: []float32{0, 1, 2},
		Tris:    [][3]int32{{0, 1, 2}},
	}
	b := &Mesh{
		Verts:   []vec.V3{{Y: 1}, {Y: 2}, {Y: 3}},
		Scalars: []float32{3, 4, 5},
		Tris:    [][3]int32{{0, 1, 2}},
	}
	a.Append(b)
	if len(a.Verts) != 6 || a.TriangleCount() != 2 {
		t.Fatalf("append: %d verts %d tris", len(a.Verts), a.TriangleCount())
	}
	if a.Tris[1] != [3]int32{3, 4, 5} {
		t.Errorf("appended indices = %v", a.Tris[1])
	}
}

func TestMeshNormal(t *testing.T) {
	m := &Mesh{
		Verts: []vec.V3{{}, {X: 1}, {Y: 1}},
		Tris:  [][3]int32{{0, 1, 2}},
	}
	if got := m.Normal(0); got.Sub(vec.New(0, 0, 1)).Len() > 1e-12 {
		t.Errorf("normal = %v", got)
	}
}

func testCloud() *data.PointCloud {
	p := data.NewPointCloud(100)
	for i := 0; i < 100; i++ {
		x := float64(i%10) - 5
		y := float64(i/10) - 5
		p.SetPos(i, vec.New(x, y, 0))
		p.SetVel(i, vec.New(float64(i), 0, 0))
	}
	p.SpeedField()
	return p
}

func TestMapPointsProjectsAll(t *testing.T) {
	p := testCloud()
	cam := camera.ForBounds(p.Bounds())
	sprites, err := MapPoints(p, &cam, 256, 256, PointsOptions{ColorField: "speed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sprites) != p.Count() {
		t.Errorf("sprites = %d, want %d", len(sprites), p.Count())
	}
	for _, s := range sprites {
		if s.Depth <= 0 {
			t.Fatal("non-positive depth")
		}
		if s.Size != spriteSize {
			t.Fatalf("sprite size %d, want %d", s.Size, spriteSize)
		}
	}
}

func TestMapPointsColorsVary(t *testing.T) {
	p := testCloud()
	cam := camera.ForBounds(p.Bounds())
	sprites, _ := MapPoints(p, &cam, 128, 128, PointsOptions{ColorField: "speed"})
	first := sprites[0].Color
	varies := false
	for _, s := range sprites[1:] {
		if s.Color != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("speed colormap produced constant colors")
	}
}

func TestMapPointsMissingField(t *testing.T) {
	p := testCloud()
	cam := camera.ForBounds(p.Bounds())
	if _, err := MapPoints(p, &cam, 64, 64, PointsOptions{ColorField: "ghost"}); err == nil {
		t.Error("missing color field accepted")
	}
	// Empty field name = constant white, no error.
	sprites, err := MapPoints(p, &cam, 64, 64, PointsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sprites[0].Color != vec.New(1, 1, 1) {
		t.Error("default color not white")
	}
}

func TestMapSplatsPerspectiveRadius(t *testing.T) {
	// Two particles at different depths: nearer one draws larger.
	p := data.NewPointCloud(2)
	p.SetPos(0, vec.New(0, 0, 0))
	p.SetPos(1, vec.New(0, 0, -20))
	cam := camera.LookAt(vec.New(0, 0, 10), vec.New(0, 0, -1), vec.New(0, 1, 0))
	cam.Far = 100
	imps, err := MapSplats(p, &cam, 128, 128, SplatOptions{WorldRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 2 {
		t.Fatalf("imps = %d", len(imps))
	}
	if imps[0].Radius <= imps[1].Radius {
		t.Errorf("near radius %v <= far radius %v", imps[0].Radius, imps[1].Radius)
	}
}

func TestDefaultSplatRadiusScalesWithDensity(t *testing.T) {
	sparse := data.NewPointCloud(10)
	dense := data.NewPointCloud(10000)
	for i := 0; i < 10; i++ {
		sparse.SetPos(i, vec.New(float64(i), float64(i%3), float64(i%2)*9))
	}
	for i := 0; i < 10000; i++ {
		dense.SetPos(i, vec.New(float64(i%10), float64((i/10)%10), float64(i/100)*0.09))
	}
	if DefaultSplatRadius(sparse) <= DefaultSplatRadius(dense) {
		t.Error("sparser cloud should have larger default radius")
	}
	if DefaultSplatRadius(data.NewPointCloud(0)) <= 0 {
		t.Error("empty cloud radius must be positive")
	}
}

func TestDrawMeshRendersSomething(t *testing.T) {
	g := sphereGrid(24)
	m, _ := Isosurface(g, "r", 8)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(128, 128)
	DrawMesh(frame, m, &cam, ShadeOptions{})
	if frame.CoveredPixels() < 100 {
		t.Errorf("isosurface covered only %d pixels", frame.CoveredPixels())
	}
	// Empty mesh: no-op, no panic.
	DrawMesh(fb.New(16, 16), &Mesh{}, &cam, ShadeOptions{})
}

func TestDrawMeshShadingVaries(t *testing.T) {
	// A sphere lit from one side must show brightness variation.
	g := sphereGrid(24)
	m, _ := Isosurface(g, "r", 8)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(128, 128)
	// Scalar range forced so gray maps to mid-intensity, letting shading
	// modulate it (the mesh scalar is the constant isovalue 8).
	DrawMesh(frame, m, &cam, ShadeOptions{
		Colormap: fb.Gray, Light: vec.New(1, 0.3, 0.5),
		ScalarLo: 0, ScalarHi: 16,
	})
	var lum []float64
	for i, c := range frame.Color {
		if !math.IsInf(frame.Depth[i], 1) {
			lum = append(lum, c.X+c.Y+c.Z)
		}
	}
	if len(lum) == 0 {
		t.Fatal("nothing rendered")
	}
	lo, hi := lum[0], lum[0]
	for _, l := range lum {
		lo = math.Min(lo, l)
		hi = math.Max(hi, l)
	}
	if hi-lo < 0.2 {
		t.Errorf("shading range [%v, %v] too flat", lo, hi)
	}
}

func BenchmarkIsosurface(b *testing.B) {
	g := sphereGrid(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Isosurface(g, "r", 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapSplats(b *testing.B) {
	p := data.NewPointCloud(100_000)
	for i := 0; i < p.Count(); i++ {
		p.SetPos(i, vec.New(float64(i%100), float64((i/100)%100), float64(i/10000)))
	}
	cam := camera.ForBounds(p.Bounds())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MapSplats(p, &cam, 512, 512, SplatOptions{WorldRadius: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIsosurfaceNormalsMatchSphere(t *testing.T) {
	g := sphereGrid(24)
	const r = 8
	m, _ := Isosurface(g, "r", r)
	if m.grid == nil {
		t.Fatal("isosurface mesh is flat")
	}
	c := vec.Splat(float64(24-1) / 2)
	for i := range m.Verts {
		n := m.VertexNormal(i)
		if math.Abs(n.Len()-1) > 1e-6 {
			t.Fatalf("normal %d not unit: %v", i, n)
		}
		// The gradient of |p-c| is the outward radial direction.
		want := m.Verts[i].Sub(c).Norm()
		if n.Sub(want).Len() > 0.15 {
			t.Fatalf("normal %d = %v, want ~%v", i, n, want)
		}
	}
}

func TestSmoothShadingReducesFaceting(t *testing.T) {
	// Adjacent pixels on a smooth-shaded sphere change brightness
	// gradually; flat shading shows facet steps. Compare the count of
	// large brightness jumps between neighboring covered pixels.
	g := sphereGrid(16) // coarse grid = strong faceting when flat
	m, _ := Isosurface(g, "r", 5)
	cam := camera.ForBounds(g.Bounds())
	jumps := func(mesh *Mesh) int {
		frame := fb.New(160, 160)
		DrawMesh(frame, mesh, &cam, ShadeOptions{Colormap: fb.Gray, ScalarLo: 0, ScalarHi: 10, Light: vec.New(1, 1, 0.5)})
		count := 0
		for y := 0; y < frame.H; y++ {
			for x := 1; x < frame.W; x++ {
				a := frame.At(x-1, y)
				b := frame.At(x, y)
				if math.IsInf(frame.Depth[frame.Index(x-1, y)], 1) || math.IsInf(frame.Depth[frame.Index(x, y)], 1) {
					continue
				}
				if math.Abs(a.X-b.X) > 0.05 {
					count++
				}
			}
		}
		return count
	}
	flat := jumps(&Mesh{Verts: m.Verts, Scalars: m.Scalars, Tris: m.Tris})
	smooth := jumps(m)
	if smooth >= flat {
		t.Errorf("smooth shading jumps (%d) not below flat (%d)", smooth, flat)
	}
}
