package data_test

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// refExtend is vec.AABB.Extend as it was before vec's Min and Max used
// the builtins: math.Min and math.Max per component.
func refExtend(b vec.AABB, p vec.V3) vec.AABB {
	return vec.AABB{
		Min: vec.V3{X: math.Min(b.Min.X, p.X), Y: math.Min(b.Min.Y, p.Y), Z: math.Min(b.Min.Z, p.Z)},
		Max: vec.V3{X: math.Max(b.Max.X, p.X), Y: math.Max(b.Max.Y, p.Y), Z: math.Max(b.Max.Z, p.Z)},
	}
}

// refCloudBounds is PointCloud.Bounds as it was before the float32 pass:
// the box grown one widened position at a time.
func refCloudBounds(p *data.PointCloud) vec.AABB {
	b := vec.EmptyAABB()
	for i := range p.X {
		b = refExtend(b, p.Pos(i))
	}
	return b
}

// sameFloat is == that also lets NaN match NaN (whatever its payload)
// and tells -0 from +0.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b && math.Signbit(a) == math.Signbit(b)
}

func sameBox(a, b vec.AABB) bool {
	for _, c := range [...][2]float64{
		{a.Min.X, b.Min.X}, {a.Min.Y, b.Min.Y}, {a.Min.Z, b.Min.Z},
		{a.Max.X, b.Max.X}, {a.Max.Y, b.Max.Y}, {a.Max.Z, b.Max.Z},
	} {
		if !sameFloat(c[0], c[1]) {
			return false
		}
	}
	return true
}

// cloudOf builds a cloud whose positions are the given float32 triples.
func cloudOf(pos ...[3]float32) *data.PointCloud {
	p := data.NewPointCloud(len(pos))
	for i, q := range pos {
		p.X[i], p.Y[i], p.Z[i] = q[0], q[1], q[2]
	}
	return p
}

func generate(t *testing.T, n, halos int, seed int64) *data.PointCloud {
	t.Helper()
	prm := cosmo.DefaultParams()
	prm.Particles, prm.Halos, prm.Seed = n, halos, seed
	p, err := cosmo.Generate(prm)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPointCloudBoundsMatchesReference holds the float32 register pass to
// == against the Extend loop it replaced, on cosmo clouds, small and odd
// counts and the IEEE special values.
func TestPointCloudBoundsMatchesReference(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	clouds := map[string]*data.PointCloud{
		"uniform":    generate(t, 20_001, 0, 3),
		"clustered":  generate(t, 20_000, 40, 4),
		"empty":      cloudOf(),
		"one":        cloudOf([3]float32{1.5, -2, 7}),
		"three":      cloudOf([3]float32{1, 2, 3}, [3]float32{-4, 5, -6}, [3]float32{0.5, -0.25, 9}),
		"nan-x":      cloudOf([3]float32{1, 2, 3}, [3]float32{nan, 0, 0}, [3]float32{-1, -2, -3}),
		"nan-y":      cloudOf([3]float32{1, nan, 3}, [3]float32{1, 0, 0}),
		"nan-z-last": cloudOf([3]float32{1, 2, 3}, [3]float32{4, 5, 6}, [3]float32{0, 0, nan}),
		"nan-first":  cloudOf([3]float32{nan, nan, nan}, [3]float32{4, 5, 6}),
		"zeros":      cloudOf([3]float32{0, negZero, 0}, [3]float32{negZero, 0, 0}, [3]float32{0, negZero, negZero}),
		"neg-zeros":  cloudOf([3]float32{negZero, negZero, negZero}),
		"inf":        cloudOf([3]float32{inf, -inf, 1}, [3]float32{-inf, 2, inf}, [3]float32{3, 4, 5}),
		"all-inf":    cloudOf([3]float32{inf, inf, inf}, [3]float32{-inf, -inf, -inf}),
	}
	for name, p := range clouds {
		want := refCloudBounds(p)
		if got := p.Bounds(); !sameBox(got, want) {
			t.Errorf("%s: Bounds = %+v, want %+v", name, got, want)
		}
	}
	if got := cloudOf().Bounds(); got != vec.EmptyAABB() {
		t.Errorf("empty cloud: Bounds = %+v, want vec.EmptyAABB()", got)
	}
}

// TestPointCloudBoundsNaNBeatsInf pins the one place the pass departs
// from the reference: an axis that holds a NaN and the infinity its
// extremum would reach is NaN, where math.Min and math.Max return the
// infinity.
func TestPointCloudBoundsNaNBeatsInf(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	p := cloudOf([3]float32{nan, 1, 2}, [3]float32{-inf, 3, 4}, [3]float32{inf, 5, 6})
	ref := refCloudBounds(p)
	if ref.Min.X != math.Inf(-1) || ref.Max.X != math.Inf(1) {
		t.Fatalf("reference X extent = [%v, %v], want [-Inf, +Inf]", ref.Min.X, ref.Max.X)
	}
	b := p.Bounds()
	if !math.IsNaN(b.Min.X) || !math.IsNaN(b.Max.X) {
		t.Errorf("X extent = [%v, %v], want [NaN, NaN]", b.Min.X, b.Max.X)
	}
	if b.Min.Y != 1 || b.Max.Y != 5 || b.Min.Z != 2 || b.Max.Z != 6 {
		t.Errorf("Bounds = %+v, want Y in [1, 5], Z in [2, 6]", b)
	}
}

// TestUnstructuredBoundsMatchesReference holds UnstructuredGrid.Bounds,
// which grows its box with vec.AABB.Extend, to the math.Min loop.
func TestUnstructuredBoundsMatchesReference(t *testing.T) {
	cloud := generate(t, 999, 5, 7)
	points := make([]vec.V3, cloud.Count())
	for i := range points {
		points[i] = cloud.Pos(i)
	}
	negZero := math.Copysign(0, -1)
	points = append(points,
		vec.V3{X: math.Inf(1), Y: negZero, Z: 0},
		vec.V3{X: 0, Y: math.NaN(), Z: math.Inf(-1)})
	for _, pts := range [][]vec.V3{nil, points[:1], points[:cloud.Count()], points} {
		u := &data.UnstructuredGrid{Points: pts}
		want := vec.EmptyAABB()
		for _, p := range pts {
			want = refExtend(want, p)
		}
		if got := u.Bounds(); !sameBox(got, want) {
			t.Errorf("%d points: Bounds = %+v, want %+v", len(pts), got, want)
		}
	}
}

// TestPointCloudBoundsAllocs holds a cold Bounds, the one a refill pays
// after InvalidateBounds, at exactly zero allocations.
func TestPointCloudBoundsAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	p := generate(t, 10_000, 20, 5)
	allocs := testing.AllocsPerRun(20, func() {
		p.InvalidateBounds()
		p.Bounds()
	})
	if allocs != 0 {
		t.Errorf("cold Bounds allocates %v times, want 0", allocs)
	}
}
