package rt

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/vec"
)

func sphereGrid(n int) *data.StructuredGrid {
	g := data.NewStructuredGrid(n, n, n)
	c := vec.Splat(float64(n-1) / 2)
	g.FillField("r", func(p vec.V3) float32 { return float32(p.Sub(c).Len()) })
	return g
}

func TestRaycastSpheresRendersParticles(t *testing.T) {
	p := randomCloud(2000, 9)
	p.SpeedField()
	cam := camera.ForBounds(p.Bounds())
	frame := fb.New(128, 128)
	bvh, err := RaycastSpheres(frame, p, &cam, SphereOptions{ColorField: "speed"})
	if err != nil {
		t.Fatal(err)
	}
	if bvh == nil || len(bvh.prims) != p.Count() {
		t.Error("BVH not returned")
	}
	if frame.CoveredPixels() < 200 {
		t.Errorf("covered %d pixels only", frame.CoveredPixels())
	}
}

func TestRaycastSpheresMissingField(t *testing.T) {
	p := randomCloud(10, 1)
	cam := camera.ForBounds(p.Bounds())
	if _, err := RaycastSpheres(fb.New(16, 16), p, &cam, SphereOptions{ColorField: "ghost"}); err == nil {
		t.Error("missing field accepted")
	}
}

func TestRaycastSpheresReuseBVH(t *testing.T) {
	p := randomCloud(500, 2)
	cam := camera.ForBounds(p.Bounds())
	f1 := fb.New(64, 64)
	bvh, err := RaycastSpheres(f1, p, &cam, SphereOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f2 := fb.New(64, 64)
	if err := RaycastSpheresWithBVH(f2, p, bvh, &cam, SphereOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range f1.Color {
		if f1.Color[i] != f2.Color[i] {
			t.Fatal("BVH reuse changed the image")
		}
	}
}

func TestRaycastSphereDepthCorrect(t *testing.T) {
	// Single sphere dead ahead: center pixel depth equals eye distance
	// minus radius.
	p := data.NewPointCloud(1)
	p.SetPos(0, vec.New(0, 0, 0))
	cam := camera.LookAt(vec.New(0, 0, 10), vec.V3{}, vec.New(0, 1, 0))
	cam.Far = 100
	frame := fb.New(65, 65)
	if _, err := RaycastSpheres(frame, p, &cam, SphereOptions{Radius: 2}); err != nil {
		t.Fatal(err)
	}
	d := frame.Depth[frame.Index(32, 32)]
	if math.Abs(d-8) > 0.05 {
		t.Errorf("center depth = %v, want ~8", d)
	}
}

func TestRaycastSliceCoversPlane(t *testing.T) {
	g := sphereGrid(32)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(96, 96)
	err := RaycastSlice(frame, g, &cam, g.Bounds().Center(), vec.New(0, 0, 1), VolumeOptions{Field: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if frame.CoveredPixels() < 500 {
		t.Errorf("slice covered %d pixels", frame.CoveredPixels())
	}
}

func TestRaycastSliceErrors(t *testing.T) {
	g := sphereGrid(8)
	cam := camera.ForBounds(g.Bounds())
	if err := RaycastSlice(fb.New(8, 8), g, &cam, vec.V3{}, vec.V3{}, VolumeOptions{Field: "r"}); err == nil {
		t.Error("zero normal accepted")
	}
	if err := RaycastSlice(fb.New(8, 8), g, &cam, vec.V3{}, vec.New(0, 0, 1), VolumeOptions{Field: "nope"}); err == nil {
		t.Error("missing field accepted")
	}
}

func TestRaycastSliceColorVaries(t *testing.T) {
	g := sphereGrid(32)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(96, 96)
	if err := RaycastSlice(frame, g, &cam, g.Bounds().Center(), vec.New(0, 1, 0), VolumeOptions{Field: "r"}); err != nil {
		t.Fatal(err)
	}
	seen := map[vec.V3]bool{}
	for i, c := range frame.Color {
		if !math.IsInf(frame.Depth[i], 1) {
			seen[c] = true
		}
	}
	if len(seen) < 5 {
		t.Errorf("slice shows %d distinct colors; field not sampled?", len(seen))
	}
}

func TestRaycastIsosurfaceSphere(t *testing.T) {
	g := sphereGrid(32)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(96, 96)
	if err := RaycastIsosurface(frame, g, &cam, 10, VolumeOptions{Field: "r"}); err != nil {
		t.Fatal(err)
	}
	if frame.CoveredPixels() < 300 {
		t.Fatalf("isosurface covered %d pixels", frame.CoveredPixels())
	}
	// Every hit must lie at distance ~10 from the center: reconstruct hit
	// points from depth and compare.
	c := g.Bounds().Center()
	w, h := frame.W, frame.H
	bad := 0
	checked := 0
	for y := 0; y < h; y += 3 {
		for x := 0; x < w; x += 3 {
			d := frame.Depth[frame.Index(x, y)]
			if math.IsInf(d, 1) {
				continue
			}
			ray := cam.RayThrough(x, y, w, h)
			p := ray.Origin.Add(ray.Dir.Scale(d))
			checked++
			if math.Abs(p.Sub(c).Len()-10) > 0.35 {
				bad++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no hits sampled")
	}
	if frac := float64(bad) / float64(checked); frac > 0.05 {
		t.Errorf("%.1f%% of isosurface hits off-sphere", frac*100)
	}
}

func TestRaycastIsosurfaceMatchesSliceDepthOrdering(t *testing.T) {
	// The isosurface at r=10 should be nearer to the camera than the
	// back half of a slice through the center — weak structural check
	// that depths are consistent across kernels.
	g := sphereGrid(32)
	cam := camera.ForBounds(g.Bounds())
	iso := fb.New(64, 64)
	if err := RaycastIsosurface(iso, g, &cam, 10, VolumeOptions{Field: "r"}); err != nil {
		t.Fatal(err)
	}
	slice := fb.New(64, 64)
	if err := RaycastSlice(slice, g, &cam, g.Bounds().Center(), vec.New(0, 0, 1), VolumeOptions{Field: "r"}); err != nil {
		t.Fatal(err)
	}
	// Composite: nearer-of-two at center pixel must be the isosurface
	// (sphere surface is in front of the central plane from our 3/4 view).
	ci := iso.Index(32, 32)
	if math.IsInf(iso.Depth[ci], 1) || math.IsInf(slice.Depth[ci], 1) {
		t.Skip("center pixel not covered by both")
	}
	if iso.Depth[ci] >= slice.Depth[ci] {
		t.Errorf("isosurface depth %v not in front of slice %v", iso.Depth[ci], slice.Depth[ci])
	}
}

func TestRaycastIsosurfaceEmptyIso(t *testing.T) {
	g := sphereGrid(16)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(32, 32)
	if err := RaycastIsosurface(frame, g, &cam, 1e9, VolumeOptions{Field: "r"}); err != nil {
		t.Fatal(err)
	}
	if frame.CoveredPixels() != 0 {
		t.Error("out-of-range isovalue rendered pixels")
	}
}

func BenchmarkRaycastSpheres(b *testing.B) {
	p := randomCloud(50_000, 4)
	cam := camera.ForBounds(p.Bounds())
	bvh := BuildSphereBVH(p, geom.DefaultSplatRadius(p), MedianSplit)
	frame := fb.New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame.Clear(vec.V3{})
		if err := RaycastSpheresWithBVH(frame, p, bvh, &cam, SphereOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRaycastIsosurface(b *testing.B) {
	g := sphereGrid(64)
	cam := camera.ForBounds(g.Bounds())
	frame := fb.New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame.Clear(vec.V3{})
		if err := RaycastIsosurface(frame, g, &cam, 20, VolumeOptions{Field: "r"}); err != nil {
			b.Fatal(err)
		}
	}
}
