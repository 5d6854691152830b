package rt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/vec"
)

func randomCloud(n int, seed int64) *data.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		p.SetPos(i, vec.New(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20))
	}
	return p
}

func TestBVHValidate(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 5000} {
		p := randomCloud(n, int64(n)+1)
		b := BuildSphereBVH(p, 0.3, MedianSplit)
		if err := b.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if len(b.prims) != n {
			t.Errorf("n=%d: count %d", n, len(b.prims))
		}
	}
}

// TestNodeCapacityHolds builds every particle count up to 2 048 and two
// workload-sized ones. The node slice must never grow past the capacity
// the build sizes it to, which would cost a silent copy and an
// allocation, and no leaf but a lone root may hold fewer than
// leafSize/2 primitives, the bound that capacity rests on.
func TestNodeCapacityHolds(t *testing.T) {
	ns := make([]int, 0, 2051)
	for n := 0; n <= 2048; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 50_000, 100_000)
	for _, n := range ns {
		b := BuildSphereBVH(randomCloud(n, int64(n)+1), 0.3, MedianSplit)
		if c := cap(b.nodes); c > n/4+2 {
			t.Fatalf("n=%d: node capacity grew to %d, past %d", n, c, n/4+2)
		}
		for i := range b.nodes {
			if c := b.nodes[i].count; c > 0 && len(b.nodes) > 1 && c < leafSize/2 {
				t.Fatalf("n=%d: node %d is a leaf of %d primitives, under %d", n, i, c, leafSize/2)
			}
		}
	}
}

// TestValidateCatchesViolations corrupts a valid tree one invariant at a
// time: Validate is the differential tests' structural oracle, so it must
// see each of the three things it claims to check.
func TestValidateCatchesViolations(t *testing.T) {
	build := func() *SphereBVH { return BuildSphereBVH(randomCloud(100, 4), 0.3, MedianSplit) }
	leaf := func(b *SphereBVH) *node {
		for i := range b.nodes {
			if b.nodes[i].count > 0 {
				return &b.nodes[i]
			}
		}
		t.Fatal("tree has no leaf")
		return nil
	}
	cases := map[string]func(b *SphereBVH){
		"sphere outside its float32 leaf box": func(b *SphereBVH) {
			nd := leaf(b)
			nd.bounds[3] = math.Nextafter32(nd.bounds[3], float32(math.Inf(-1)))
		},
		"child box escapes parent": func(b *SphereBVH) {
			nd := leaf(b)
			nd.bounds[0] = math.Nextafter32(b.nodes[0].bounds[0], float32(math.Inf(-1)))
		},
		"primitive referenced twice": func(b *SphereBVH) { leaf(b).left++ },
	}
	for name, corrupt := range cases {
		b := build()
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: valid tree rejected: %v", name, err)
		}
		corrupt(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

func TestIntersectSingleSphere(t *testing.T) {
	p := data.NewPointCloud(1)
	p.SetPos(0, vec.New(0, 0, 0))
	b := BuildSphereBVH(p, 1, MedianSplit)
	// Ray along -Z toward the sphere from (0,0,10).
	hit, ok := b.Intersect(vec.New(0, 0, 10), vec.New(0, 0, -1), 0, math.Inf(1))
	if !ok {
		t.Fatal("ray missed sphere")
	}
	if math.Abs(hit.T-9) > 1e-9 {
		t.Errorf("hit T = %v, want 9", hit.T)
	}
	if hit.Normal.Sub(vec.New(0, 0, 1)).Len() > 1e-9 {
		t.Errorf("normal = %v, want +Z", hit.Normal)
	}
	if hit.Particle != 0 {
		t.Errorf("particle = %d", hit.Particle)
	}
	// Miss: offset ray.
	if _, ok := b.Intersect(vec.New(5, 0, 10), vec.New(0, 0, -1), 0, math.Inf(1)); ok {
		t.Error("offset ray should miss")
	}
}

func TestIntersectNearestOfMany(t *testing.T) {
	p := data.NewPointCloud(3)
	p.SetPos(0, vec.New(0, 0, -5))
	p.SetPos(1, vec.New(0, 0, 0))
	p.SetPos(2, vec.New(0, 0, 5))
	b := BuildSphereBVH(p, 0.5, MedianSplit)
	hit, ok := b.Intersect(vec.New(0, 0, 20), vec.New(0, 0, -1), 0, math.Inf(1))
	if !ok {
		t.Fatal("missed")
	}
	if hit.Particle != 2 {
		t.Errorf("nearest = %d, want 2 (closest to origin of ray)", hit.Particle)
	}
}

func TestIntersectFromInsideSphere(t *testing.T) {
	p := data.NewPointCloud(1)
	p.SetPos(0, vec.New(0, 0, 0))
	b := BuildSphereBVH(p, 2, MedianSplit)
	hit, ok := b.Intersect(vec.New(0, 0, 0), vec.New(0, 0, -1), 0, math.Inf(1))
	if !ok {
		t.Fatal("inside ray missed")
	}
	if math.Abs(hit.T-2) > 1e-9 {
		t.Errorf("exit T = %v, want 2", hit.T)
	}
}

func TestIntersectRespectsTMax(t *testing.T) {
	p := data.NewPointCloud(1)
	p.SetPos(0, vec.New(0, 0, 0))
	b := BuildSphereBVH(p, 1, MedianSplit)
	if _, ok := b.Intersect(vec.New(0, 0, 10), vec.New(0, 0, -1), 0, 5); ok {
		t.Error("hit beyond tMax accepted")
	}
}

func TestEmptyBVHNeverHits(t *testing.T) {
	b := BuildSphereBVH(data.NewPointCloud(0), 1, MedianSplit)
	if _, ok := b.Intersect(vec.New(0, 0, 10), vec.New(0, 0, -1), 0, math.Inf(1)); ok {
		t.Error("empty BVH reported a hit")
	}
}

// bruteForce finds the nearest hit by testing every sphere directly.
func bruteForce(p *data.PointCloud, radius float64, origin, dir vec.V3, tMin, tMax float64) (Hit, bool) {
	best := Hit{T: tMax}
	found := false
	r2 := radius * radius
	for i := 0; i < p.Count(); i++ {
		c := p.Pos(i)
		oc := origin.Sub(c)
		a := dir.Dot(dir)
		half := oc.Dot(dir)
		cc := oc.Dot(oc) - r2
		disc := half*half - a*cc
		if disc < 0 {
			continue
		}
		sq := math.Sqrt(disc)
		t := (-half - sq) / a
		if t <= tMin {
			t = (-half + sq) / a
		}
		if t <= tMin || t >= best.T {
			continue
		}
		hp := origin.Add(dir.Scale(t))
		best = Hit{T: t, Particle: i, Normal: hp.Sub(c).Norm()}
		found = true
	}
	return best, found
}

// Property: BVH traversal returns exactly the brute-force nearest hit.
func TestIntersectMatchesBruteForceProperty(t *testing.T) {
	p := randomCloud(300, 77)
	const radius = 0.4
	b := BuildSphereBVH(p, radius, MedianSplit)
	f := func(ox, oy, oz, tx, ty, tz float64) bool {
		origin := vec.New(mod20(ox)+25, mod20(oy), mod20(oz)) // outside-ish
		target := vec.New(mod20(tx), mod20(ty), mod20(tz))
		dir := target.Sub(origin).Norm()
		if dir == (vec.V3{}) {
			return true
		}
		want, wantOK := bruteForce(p, radius, origin, dir, 0, math.Inf(1))
		got, ok := b.Intersect(origin, dir, 0, math.Inf(1))
		if ok != wantOK {
			t.Logf("ok=%v want %v", ok, wantOK)
			return false
		}
		if ok && (got.Particle != want.Particle || math.Abs(got.T-want.T) > 1e-9) {
			t.Logf("hit %d@%v want %d@%v", got.Particle, got.T, want.Particle, want.T)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mod20(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(math.Abs(x), 20)
}

// latticeCloud places n particles on a quarter-unit lattice in [0, 16)^3.
// With radius 0.5 every centre ± radius is a float32, so node bounds do
// not round and the extreme sphere of a node touches its bound plane.
func latticeCloud(n int, seed int64) *data.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		p.SetPos(i, vec.New(float64(rng.Intn(64))/4, float64(rng.Intn(64))/4, float64(rng.Intn(64))/4))
	}
	return p
}

// TestIntersectAxisParallelOnBoundPlane pins the slab test's NaN
// semantics. A ray parallel to an axis has a zero direction component
// there, safeInv makes that +Inf, and when the origin lies exactly on a
// node's bound plane the slab distance is 0 × Inf = NaN. The traversal
// must ignore that plane (every comparison with NaN is false), not
// propagate the NaN into a miss: such a ray is tangent to the node's
// extreme sphere, which the brute-force oracle reports as a hit.
func TestIntersectAxisParallelOnBoundPlane(t *testing.T) {
	const radius = 0.5
	p := latticeCloud(400, 11)
	b := BuildSphereBVH(p, radius, MedianSplit)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	rays, hits, tangent := 0, 0, 0
	// cast checks one ray along axis d (direction sign) that lies in the
	// plane x[u] = plane and passes x[w] = through.
	cast := func(ni int32, d, u int, sign float64, plane, through float32) {
		var o, dir [3]float64
		o[d], dir[d] = 8-sign*40, sign
		o[u], o[3-d-u] = float64(plane), float64(through)
		origin, dv := vec.New(o[0], o[1], o[2]), vec.New(dir[0], dir[1], dir[2])
		want, wantOK := bruteForce(p, radius, origin, dv, 0, math.Inf(1))
		got, ok := b.Intersect(origin, dv, 0, math.Inf(1))
		// On a lattice distinct spheres tie in T exactly, and which of
		// them wins depends on visiting order, so T is what must agree.
		if ok != wantOK || ok && got.T != want.T {
			t.Fatalf("node %d: ray %v -> %v: got %+v %v, want %+v %v", ni, origin, dv, got, ok, want, wantOK)
		}
		rays++
		if ok {
			hits++
			// A tangent hit is exactly one radius off the ray on axis u.
			if math.Abs(float64(p.Pos(got.Particle).Axis(u))-o[u]) == radius {
				tangent++
			}
		}
	}
	// span returns the primitive range under node ni, casting the rays
	// of every node on the way: for each sphere under the node, rays
	// along each axis d, in each of the node's bound planes on another
	// axis u, through the sphere's centre on the remaining axis.
	var span func(ni int32) (lo, hi int32)
	span = func(ni int32) (lo, hi int32) {
		nd := &b.nodes[ni]
		lo, hi = nd.left, nd.left+nd.count
		if nd.count == 0 {
			lo, _ = span(nd.left)
			_, hi = span(nd.left + 1)
		}
		for i := lo; i < hi; i++ {
			c := b.prims[i].c
			for d := 0; d < 3; d++ {
				for _, u := range []int{(d + 1) % 3, (d + 2) % 3} {
					for _, sign := range []float64{1, -1} {
						cast(ni, d, u, sign, nd.bounds[u], c[3-d-u])
						cast(ni, d, u, sign, nd.bounds[3+u], c[3-d-u])
					}
				}
			}
		}
		return lo, hi
	}
	span(0)
	t.Logf("%d rays, %d hits, %d of them tangent", rays, hits, tangent)
	if tangent == 0 {
		t.Error("no ray grazed a sphere on a bound plane: the test no longer exercises the NaN case")
	}
}

// orbitCamera frames b from image k of a total-image orbit, as the
// visualization proxy does for many-images-per-step runs.
func orbitCamera(b vec.AABB, k, total int) camera.Camera {
	return orbitAt(b, 2*math.Pi*float64(k)/float64(total))
}

// orbitAt frames b from the given azimuth, with the proxy's fallback
// distance for a box of zero size.
func orbitAt(b vec.AABB, angle float64) camera.Camera {
	d := b.Diagonal()
	if d == 0 {
		d = 1
	}
	dir := vec.New(math.Cos(angle), 0.5, math.Sin(angle)).Norm()
	cam := camera.LookAt(b.Center().Add(dir.Scale(d*1.2)), b.Center(), vec.New(0, 1, 0))
	cam.FitClip(b)
	return cam
}

// TestStrategiesAgreeExactly is the differential test for the BVH: on a
// clustered cloud with the benchmark's overlapping spheres, the
// median-split tree and brute force return the same Hit — every field, to
// the bit — for every primary ray of a full orbit.
func TestStrategiesAgreeExactly(t *testing.T) {
	params := cosmo.DefaultParams()
	params.Particles, params.Halos, params.Seed = 6000, 24, 5
	p, err := cosmo.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	radius := geom.DefaultSplatRadius(p)
	b := BuildSphereBVH(p, radius, MedianSplit)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	const views, raySize = 6, 40
	hits := 0
	for k := 0; k < views; k++ {
		cam := orbitCamera(p.Bounds(), k, views)
		gen := cam.NewRayGen(raySize, raySize)
		for y := 0; y < raySize; y++ {
			for x := 0; x < raySize; x++ {
				ray := gen.Ray(x, y)
				want, wantOK := bruteForce(p, radius, ray.Origin, ray.Dir, cam.Near, cam.Far)
				got, ok := b.Intersect(ray.Origin, ray.Dir, cam.Near, cam.Far)
				if ok != wantOK || ok && got != want {
					t.Fatalf("view %d pixel (%d,%d): got %+v %v, brute force %+v %v", k, x, y, got, ok, want, wantOK)
				}
				if wantOK {
					hits++
				}
			}
		}
	}
	if hits < views*raySize*raySize/4 {
		t.Errorf("only %d of %d rays hit: spheres no longer overlap as in the benchmark", hits, views*raySize*raySize)
	}
}

// BenchmarkBVHBuild builds the tree over each cosmo raycast workload's
// cloud.
func BenchmarkBVHBuild(b *testing.B) {
	for _, w := range workloadShapes {
		b.Run(w.name, func(b *testing.B) {
			p := cosmoCloud(b, w.particles, 1)
			radius := geom.DefaultSplatRadius(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildSphereBVH(p, radius, MedianSplit)
			}
		})
	}
}

func BenchmarkBVHIntersect(b *testing.B) {
	p := randomCloud(100_000, 1)
	bvh := BuildSphereBVH(p, 0.1, MedianSplit)
	origin := vec.New(30, 10, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := vec.New(-1, 0.001*float64(i%100), 0.001*float64(i%37)).Norm()
		bvh.Intersect(origin, dir, 0, math.Inf(1))
	}
}
