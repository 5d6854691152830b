package geom

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

func tetSphereGrid(n int) *data.UnstructuredGrid {
	return data.Tetrahedralize(sphereGrid(n))
}

func TestUnstructuredIsosurfaceSphereArea(t *testing.T) {
	u := tetSphereGrid(24)
	const r = 8
	m, err := IsosurfaceUnstructured(u, "r", r)
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() == 0 {
		t.Fatal("empty isosurface")
	}
	got := meshArea(m)
	want := 4 * math.Pi * r * r
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("sphere area = %.1f, want %.1f", got, want)
	}
	// Vertices near the sphere.
	c := vec.Splat(float64(24-1) / 2)
	for _, v := range m.Verts {
		if math.Abs(v.Sub(c).Len()-r) > 0.5 {
			t.Fatalf("vertex at distance %v", v.Sub(c).Len())
		}
	}
}

// The structured and unstructured contour pipelines use the same
// tetrahedral decomposition, so they must produce identical surfaces on
// the same field.
func TestUnstructuredMatchesStructuredContour(t *testing.T) {
	g := sphereGrid(16)
	u := data.Tetrahedralize(g)
	ms, err := Isosurface(g, "r", 5)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := IsosurfaceUnstructured(u, "r", 5)
	if err != nil {
		t.Fatal(err)
	}
	if ms.TriangleCount() != mu.TriangleCount() {
		t.Fatalf("triangle counts differ: %d vs %d", ms.TriangleCount(), mu.TriangleCount())
	}
	if math.Abs(meshArea(ms)-meshArea(mu)) > 1e-9*meshArea(ms) {
		t.Errorf("areas differ: %v vs %v", meshArea(ms), meshArea(mu))
	}
}

func TestUnstructuredSlicePlane(t *testing.T) {
	u := tetSphereGrid(12)
	pt := vec.New(5.5, 5.5, 5.5)
	n := vec.New(1, 0.5, 0.25)
	m, err := SlicePlaneUnstructured(u, "r", pt, n)
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() == 0 {
		t.Fatal("empty slice")
	}
	nn := n.Norm()
	for _, v := range m.Verts {
		if d := math.Abs(v.Sub(pt).Dot(nn)); d > 1e-6 {
			t.Fatalf("slice vertex off-plane by %v", d)
		}
	}
	// Scalars interpolate the field: values must lie within the field's
	// range.
	f, _ := u.Field("r")
	lo, hi := f.MinMax()
	for _, s := range m.Scalars {
		if s < lo-0.5 || s > hi+0.5 {
			t.Fatalf("interpolated scalar %v outside [%v, %v]", s, lo, hi)
		}
	}
}

func TestUnstructuredSliceErrors(t *testing.T) {
	u := tetSphereGrid(6)
	if _, err := SlicePlaneUnstructured(u, "r", vec.V3{}, vec.V3{}); err == nil {
		t.Error("zero normal accepted")
	}
	if _, err := SlicePlaneUnstructured(u, "ghost", vec.V3{}, vec.New(0, 0, 1)); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := IsosurfaceUnstructured(u, "ghost", 1); err == nil {
		t.Error("missing field accepted")
	}
}

func TestUnstructuredEmptyMesh(t *testing.T) {
	u := &data.UnstructuredGrid{Fields: []data.Field{{Name: "r"}}}
	m, err := IsosurfaceUnstructured(u, "r", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() != 0 {
		t.Error("empty mesh produced triangles")
	}
}

func BenchmarkUnstructuredIsosurface(b *testing.B) {
	u := tetSphereGrid(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := IsosurfaceUnstructured(u, "r", 10); err != nil {
			b.Fatal(err)
		}
	}
}
