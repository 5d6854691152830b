package rt

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
)

// FuzzPacketsMatchReference holds the packet tracer to the per-ray
// reference and to brute force on small clouds: a clustered cosmo cloud
// for odd seeds, a lattice for even ones, of at most 2 000 particles,
// with the default radius scaled by 2^s for s in [-3, 3) and seen from an
// orbit angle. The frame must be == to the reference's, and Intersect
// must equal brute force on a sample of its rays. Lattice spheres tie in
// T, and which of two tied spheres wins depends on visiting order, so
// there depth and T must agree, colour and particle need not.
func FuzzPacketsMatchReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint16(1500), 10.0, 0.0) // the default radius
	}
	f.Add(int64(7), uint16(2000), 13.0, 1.3)
	f.Add(int64(8), uint16(1), 2.0, 4.0)
	f.Fuzz(func(t *testing.T, seed int64, count uint16, scale, angle float64) {
		n := int(count % 2001)
		lattice := seed&1 == 0
		var p *data.PointCloud
		radius := 0.5
		if lattice {
			p = latticeCloud(n, seed)
			p.SpeedField()
		} else {
			p = cosmoCloud(t, n, seed)
			radius = geom.DefaultSplatRadius(p)
		}
		radius *= math.Exp2(mod20(scale)*0.3 - 3)
		cam := orbitAt(p.Bounds(), mod20(angle))
		bvh := BuildSphereBVH(p, radius, MedianSplit)
		if err := bvh.Validate(); err != nil {
			t.Fatal(err)
		}

		const w, h = 52, 38 // no multiple of the tile, so partial tiles run
		opt := SphereOptions{ColorField: "speed"}
		got, want := fb.New(w, h), fb.New(w, h)
		if err := RaycastSpheresWithBVH(got, p, bvh, &cam, opt); err != nil {
			t.Fatal(err)
		}
		if err := refRaycastSpheresWithBVH(want, p, bvh, &cam, opt); err != nil {
			t.Fatal(err)
		}
		requireSameFrame(t, "fuzz", got, want, !lattice)

		gen := cam.NewRayGen(w, h)
		for i := 0; i < w*h; i += 7 {
			ray := gen.Ray(i%w, i/w)
			want, wantOK := bruteForce(p, radius, ray.Origin, ray.Dir, cam.Near, cam.Far)
			got, ok := bvh.Intersect(ray.Origin, ray.Dir, cam.Near, cam.Far)
			if ok != wantOK || ok && got.T != want.T || ok && !lattice && got != want {
				t.Fatalf("pixel (%d,%d): got %+v %v, brute force %+v %v", i%w, i/w, got, ok, want, wantOK)
			}
		}
	})
}
