package render

import (
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

func testCloud(n int) *data.PointCloud {
	rng := rand.New(rand.NewSource(1))
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		p.SetPos(i, vec.New(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		p.SetVel(i, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	p.SpeedField()
	return p
}

func testGrid(n int) *data.StructuredGrid {
	g := data.NewStructuredGrid(n, n, n)
	c := vec.Splat(float64(n-1) / 2)
	g.FillField("temperature", func(p vec.V3) float32 {
		return float32(1 / (1 + p.Sub(c).Len()))
	})
	return g
}

func TestRegistry(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 10 {
		t.Fatalf("algorithms = %v", algs)
	}
	for _, name := range algs {
		r, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != name {
			t.Errorf("renderer %q reports name %q", name, r.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// The registry's algorithms by the data kind each accepts.
var algorithmsByKind = map[data.Kind][]string{
	data.KindPointCloud:       {"points", "gsplat", "raycast"},
	data.KindStructuredGrid:   {"vtk-iso", "ray-iso", "vtk-slice", "ray-slice", "ray-dvr"},
	data.KindUnstructuredGrid: {"uns-iso", "uns-slice"},
}

func TestAlgorithmsFor(t *testing.T) {
	n := 0
	for kind, names := range algorithmsByKind {
		for _, name := range names {
			r, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if r.Kind() != kind {
				t.Errorf("%s accepts kind %v, want %v", name, r.Kind(), kind)
			}
		}
		n += len(names)
	}
	if n != len(Algorithms()) {
		t.Errorf("%d algorithms by kind, %d registered", n, len(Algorithms()))
	}
}

func TestAllCloudAlgorithmsRender(t *testing.T) {
	p := testCloud(2000)
	cam := camera.ForBounds(p.Bounds())
	for _, name := range algorithmsByKind[data.KindPointCloud] {
		r, _ := New(name)
		frame := fb.New(96, 96)
		stats, err := r.Render(frame, p, &cam, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if frame.CoveredPixels() < 50 {
			t.Errorf("%s covered %d pixels", name, frame.CoveredPixels())
		}
		if stats.Elements != p.Count() {
			t.Errorf("%s elements = %d", name, stats.Elements)
		}
		if stats.Primitives == 0 {
			t.Errorf("%s reported no primitives", name)
		}
		if stats.Setup+stats.Render <= 0 {
			t.Errorf("%s reported no time", name)
		}
		// Wrong kind rejected.
		if _, err := r.Render(frame, testGrid(4), &cam, Options{}); err == nil {
			t.Errorf("%s accepted a grid", name)
		}
	}
}

func TestAllGridAlgorithmsRender(t *testing.T) {
	g := testGrid(24)
	cam := camera.ForBounds(g.Bounds())
	for _, name := range algorithmsByKind[data.KindStructuredGrid] {
		r, _ := New(name)
		frame := fb.New(96, 96)
		stats, err := r.Render(frame, g, &cam, Options{IsoValue: 0.12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if frame.CoveredPixels() < 50 {
			t.Errorf("%s covered %d pixels", name, frame.CoveredPixels())
		}
		if stats.Elements != g.Cells() {
			t.Errorf("%s elements = %d, want %d", name, stats.Elements, g.Cells())
		}
		if _, err := r.Render(frame, testCloud(4), &cam, Options{}); err == nil {
			t.Errorf("%s accepted a cloud", name)
		}
	}
}

func TestRaycastBVHCache(t *testing.T) {
	p := testCloud(5000)
	cam := camera.ForBounds(p.Bounds())
	r, _ := New("raycast")
	frame := fb.New(64, 64)
	s1, err := r.Render(frame, p, &cam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Render(frame, p, &cam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Setup == 0 {
		t.Error("first render reported no setup time")
	}
	if s2.Setup > s1.Setup/2 {
		t.Errorf("cached setup %v not much cheaper than first build %v", s2.Setup, s1.Setup)
	}
	// Different dataset invalidates the cache.
	p2 := testCloud(5000)
	s3, err := r.Render(frame, p2, &cam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Setup <= s2.Setup {
		t.Log("note: rebuild setup not larger than cache hit (timing noise tolerated)")
	}
}

func TestGeometryVsRaycastAgreeOnCoverage(t *testing.T) {
	// The two isosurface pipelines must show roughly the same silhouette:
	// covered-pixel counts within 40% of each other.
	g := testGrid(32)
	cam := camera.ForBounds(g.Bounds())
	opt := Options{IsoValue: 0.12}
	va, _ := New("vtk-iso")
	rb, _ := New("ray-iso")
	f1 := fb.New(128, 128)
	f2 := fb.New(128, 128)
	if _, err := va.Render(f1, g, &cam, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Render(f2, g, &cam, opt); err != nil {
		t.Fatal(err)
	}
	c1, c2 := float64(f1.CoveredPixels()), float64(f2.CoveredPixels())
	if c1 == 0 || c2 == 0 {
		t.Fatalf("coverage: vtk=%v ray=%v", c1, c2)
	}
	ratio := c1 / c2
	if ratio < 0.6 || ratio > 1.67 {
		t.Errorf("pipeline silhouettes diverge: vtk=%v ray=%v", c1, c2)
	}
}

func TestSliceAlgorithmsAgree(t *testing.T) {
	g := testGrid(24)
	cam := camera.ForBounds(g.Bounds())
	opt := Options{
		SlicePoint:  g.Bounds().Center(),
		SliceNormal: vec.New(0, 1, 0),
	}
	vs, _ := New("vtk-slice")
	rs, _ := New("ray-slice")
	f1 := fb.New(96, 96)
	f2 := fb.New(96, 96)
	if _, err := vs.Render(f1, g, &cam, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Render(f2, g, &cam, opt); err != nil {
		t.Fatal(err)
	}
	rmse, err := fb.RMSE(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	// The two pipelines draw the same plane with the same colormap; they
	// differ only by interpolation and shading details.
	if rmse > 0.25 {
		t.Errorf("slice pipelines diverge: RMSE = %v", rmse)
	}
}

func TestDefaultSlicePlane(t *testing.T) {
	g := testGrid(16)
	cam := camera.ForBounds(g.Bounds())
	r, _ := New("ray-slice")
	frame := fb.New(64, 64)
	// No plane specified: defaults to center, +Z normal.
	if _, err := r.Render(frame, g, &cam, Options{}); err != nil {
		t.Fatal(err)
	}
	if frame.CoveredPixels() == 0 {
		t.Error("default slice rendered nothing")
	}
}

func testUnstructured(n int) *data.UnstructuredGrid {
	return data.Tetrahedralize(testGrid(n))
}

func TestUnstructuredAlgorithmsRender(t *testing.T) {
	u := testUnstructured(16)
	cam := camera.ForBounds(u.Bounds())
	for _, name := range algorithmsByKind[data.KindUnstructuredGrid] {
		r, _ := New(name)
		frame := fb.New(96, 96)
		stats, err := r.Render(frame, u, &cam, Options{IsoValue: 0.12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if frame.CoveredPixels() < 50 {
			t.Errorf("%s covered %d pixels", name, frame.CoveredPixels())
		}
		if stats.Elements != u.Cells() {
			t.Errorf("%s elements = %d, want %d", name, stats.Elements, u.Cells())
		}
		// Wrong kind rejected.
		if _, err := r.Render(frame, testGrid(4), &cam, Options{}); err == nil {
			t.Errorf("%s accepted a structured grid", name)
		}
	}
}

// The structured and unstructured isosurface renderers must agree on the
// same underlying field (the tet mesh comes from the same grid).
func TestUnstructuredMatchesStructuredImage(t *testing.T) {
	g := testGrid(20)
	u := data.Tetrahedralize(g)
	cam := camera.ForBounds(g.Bounds())
	opt := Options{IsoValue: 0.12}
	rs, _ := New("vtk-iso")
	ru, _ := New("uns-iso")
	f1 := fb.New(96, 96)
	f2 := fb.New(96, 96)
	if _, err := rs.Render(f1, g, &cam, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := ru.Render(f2, u, &cam, opt); err != nil {
		t.Fatal(err)
	}
	rmse, err := fb.RMSE(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.01 {
		t.Errorf("structured vs unstructured isosurface RMSE = %v", rmse)
	}
}

// With no colour range set, the geometry isosurface renderers colour by
// the field's range, as ray-iso does — not by the mesh's own, which is the
// single isovalue and mapped every vertex to the colormap's first entry,
// black.
func TestIsoDefaultRangeIsTheFieldRange(t *testing.T) {
	g, err := blast.Generate(blast.Params{NX: 40, NY: 40, NZ: 40, BoxSize: 10, Seed: 1, TimeStep: 6})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := g.Field("temperature")
	lo, hi := f.MinMax()
	cam := camera.ForBounds(g.Bounds())
	for name, ds := range map[string]data.Dataset{"vtk-iso": g, "uns-iso": data.Tetrahedralize(g)} {
		r, _ := New(name)
		unset, pinned := fb.New(96, 96), fb.New(96, 96)
		if _, err := r.Render(unset, ds, &cam, Options{IsoValue: 0.25}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := r.Render(pinned, ds, &cam, Options{IsoValue: 0.25, ScalarLo: lo, ScalarHi: hi}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := 0.0
		for i, c := range unset.Color {
			sum += c.X + c.Y + c.Z
			if c != pinned.Color[i] || unset.Depth[i] != pinned.Depth[i] {
				t.Fatalf("%s: pixel %d is %v with no range set, %v with the field's range pinned", name, i, c, pinned.Color[i])
			}
		}
		if unset.CoveredPixels() == 0 || sum == 0 {
			t.Errorf("%s: default-options render is black: %d pixels covered, colour sum %v", name, unset.CoveredPixels(), sum)
		}
	}
}

// Determinism: rendering the same scene twice — and with different
// GOMAXPROCS-driven worker splits — must produce identical frames. Bands
// and ranks partition pixels disjointly, so there is no legal source of
// nondeterminism.
func TestRenderDeterminism(t *testing.T) {
	p := testCloud(3000)
	g := testGrid(20)
	cam := camera.ForBounds(p.Bounds())
	gcam := camera.ForBounds(g.Bounds())
	for _, name := range Algorithms() {
		r1, _ := New(name)
		r2, _ := New(name)
		var ds data.Dataset
		var c *camera.Camera
		opt := Options{IsoValue: 0.12}
		switch r1.Kind() {
		case data.KindPointCloud:
			ds, c = p, &cam
		case data.KindStructuredGrid:
			ds, c = g, &gcam
		case data.KindUnstructuredGrid:
			ds, c = data.Tetrahedralize(g), &gcam
		}
		f1 := fb.New(80, 80)
		f2 := fb.New(80, 80)
		if _, err := r1.Render(f1, ds, c, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := r2.Render(f2, ds, c, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range f1.Color {
			if f1.Color[i] != f2.Color[i] {
				t.Fatalf("%s: nondeterministic at pixel %d", name, i)
			}
		}
	}
}
