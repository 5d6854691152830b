package rt

import (
	"math"
	"math/rand"
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

// FuzzBuildMatchesReference holds the presorted build to the quickselect
// reference on clouds of at most 2 000 particles whose coordinates sit on
// a grid of one to 32 cells a side, half of them negative, so centres
// tie on every axis; up to three of them may be NaN of either sign on one
// axis. The tree must pass Validate, have the quickselect build's node
// count, equal the reference run with the index tie rule (NaN bounds
// equal to NaN), and trace every sampled ray that meets no NaN sphere to
// brute force's nearest hit T.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(31), uint8(0))
	f.Add(int64(2), uint16(1500), uint8(3), uint8(0))
	f.Add(int64(3), uint16(700), uint8(0), uint8(3))
	f.Add(int64(4), uint16(17), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, count uint16, grid, nans uint8) {
		n, cells := int(count%2001), int(grid%32)+1
		rng := rand.New(rand.NewSource(seed))
		p := data.NewPointCloud(n)
		for i := 0; i < n; i++ {
			p.X[i] = float32(rng.Intn(cells)-cells/2) * 0.75
			p.Y[i] = float32(rng.Intn(cells)-cells/2) * 0.75
			p.Z[i] = float32(rng.Intn(cells)-cells/2) * 0.75
		}
		nan := math.Float32bits(float32(math.NaN()))
		for k := 0; k < int(nans%4) && n > 0; k++ {
			axis := [3][]float32{p.X, p.Y, p.Z}[rng.Intn(3)]
			axis[rng.Intn(n)] = math.Float32frombits(nan | uint32(rng.Intn(2))<<31)
		}
		const radius = 0.5
		got := BuildSphereBVH(p, radius, MedianSplit)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if q := refBuild(p, radius, nthElement); len(got.nodes) != len(q.nodes) {
			t.Fatalf("%d nodes, quickselect build %d", len(got.nodes), len(q.nodes))
		}
		var ties int
		requireSameTree(t, "tie rule", got, refBuild(p, radius, tieRule(&ties)))
		if finite := finiteCloud(p); finite.Count() > 0 {
			cam := orbitAt(finite.Bounds(), float64(seed%7))
			requireFiniteHits(t, got, p, &cam, 24, 24)
		}
	})
}
