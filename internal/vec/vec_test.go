package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func approxV(a, b V3) bool { return approx(a.X, b.X) && approx(a.Y, b.Y) && approx(a.Z, b.Z) }

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, -5, 6)
	if got := a.Add(b); got != New(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(x); got != z.Neg() {
		t.Errorf("y cross x = %v, want -z", got)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x.y = %v", got)
	}
	if got := New(1, 2, 3).Dot(New(4, 5, 6)); got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
}

func TestNorm(t *testing.T) {
	v := New(3, 4, 0).Norm()
	if !approx(v.Len(), 1) {
		t.Errorf("norm length = %v", v.Len())
	}
	zero := V3{}
	if zero.Norm() != zero {
		t.Errorf("zero.Norm() = %v", zero.Norm())
	}
}

func TestLerp(t *testing.T) {
	a := New(0, 0, 0)
	b := New(10, -10, 2)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); !approxV(got, New(5, -5, 1)) {
		t.Errorf("lerp 0.5 = %v", got)
	}
}

func TestAxisAccessors(t *testing.T) {
	v := New(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Axis(i); got != want {
			t.Errorf("Axis(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestClampAndFinite(t *testing.T) {
	v := New(-2, 0.5, 3).Clamp(0, 1)
	if v != New(0, 0.5, 1) {
		t.Errorf("Clamp = %v", v)
	}
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if New(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if New(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

// Property: cross product is orthogonal to both inputs.
func TestCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(clampRange(ax), clampRange(ay), clampRange(az))
		b := New(clampRange(bx), clampRange(by), clampRange(bz))
		c := a.Cross(b)
		scale := 1 + a.Len()*b.Len()
		return math.Abs(c.Dot(a))/scale < 1e-6 && math.Abs(c.Dot(b))/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a x b|^2 + (a.b)^2 == |a|^2 |b|^2 (Lagrange identity).
func TestLagrangeIdentityProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(clampRange(ax), clampRange(ay), clampRange(az))
		b := New(clampRange(bx), clampRange(by), clampRange(bz))
		lhs := a.Cross(b).Len2() + a.Dot(b)*a.Dot(b)
		rhs := a.Len2() * b.Len2()
		return math.Abs(lhs-rhs) <= 1e-6*(1+rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampRange maps arbitrary float64s from testing/quick into a sane range
// so products do not overflow.
func clampRange(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}

func TestMatIdentity(t *testing.T) {
	p := New(1, 2, 3)
	if got := Identity().MulPoint(p); got != p {
		t.Errorf("I*p = %v", got)
	}
}

func TestTranslateScale(t *testing.T) {
	p := New(1, 2, 3)
	if got := Translate(New(10, 20, 30)).MulPoint(p); got != New(11, 22, 33) {
		t.Errorf("translate = %v", got)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	a := LookAt(New(5, 4, 3), New(0, 0, 0), New(0, 1, 0))
	b := Translate(New(1, 2, 3))
	c := Perspective(math.Pi/3, 1.5, 1, 100)
	p := New(0.5, -1, 4)
	left := a.MulM(b).MulM(c).MulPoint(p)
	right := a.MulPoint(b.MulPoint(c.MulPoint(p)))
	if !approxV(left, right) {
		t.Errorf("(ABC)p = %v, A(B(Cp)) = %v", left, right)
	}
}

func TestLookAtMapsEyeToOrigin(t *testing.T) {
	eye := New(5, 4, 3)
	view := LookAt(eye, New(0, 0, 0), New(0, 1, 0))
	if got := view.MulPoint(eye); !approxV(got, V3{}) {
		t.Errorf("view*eye = %v, want origin", got)
	}
	// The look target must land on the -Z axis.
	tgt := view.MulPoint(New(0, 0, 0))
	if !approx(tgt.X, 0) || !approx(tgt.Y, 0) || tgt.Z >= 0 {
		t.Errorf("view*center = %v, want on -Z axis", tgt)
	}
}

func TestPerspectiveDepthRange(t *testing.T) {
	proj := Perspective(math.Pi/3, 1, 1, 100)
	near := proj.MulPoint(New(0, 0, -1))
	far := proj.MulPoint(New(0, 0, -100))
	if !approx(near.Z, -1) {
		t.Errorf("near plane z = %v, want -1", near.Z)
	}
	if !approx(far.Z, 1) {
		t.Errorf("far plane z = %v, want 1", far.Z)
	}
}

func TestAABBExtendUnion(t *testing.T) {
	b := EmptyAABB()
	if b.Min != Splat(math.Inf(1)) || b.Max != Splat(math.Inf(-1)) {
		t.Fatalf("EmptyAABB = %+v", b)
	}
	b = b.Extend(New(1, 2, 3))
	if b.Min != New(1, 2, 3) || b.Max != New(1, 2, 3) {
		t.Fatalf("point box wrong: %+v", b)
	}
	b = b.Extend(New(-1, 5, 0))
	want := AABB{Min: New(-1, 2, 0), Max: New(1, 5, 3)}
	if b != want {
		t.Fatalf("extended box = %+v, want %+v", b, want)
	}
}

func TestAABBGeometryQueries(t *testing.T) {
	b := NewAABB(New(0, 0, 0), New(2, 4, 6))
	if b.Center() != New(1, 2, 3) {
		t.Errorf("center = %v", b.Center())
	}
	if b.Size() != New(2, 4, 6) {
		t.Errorf("size = %v", b.Size())
	}
	if b.LongestAxis() != 2 {
		t.Errorf("longest axis = %d", b.LongestAxis())
	}
	if !b.Contains(New(1, 1, 1)) || b.Contains(New(3, 1, 1)) {
		t.Error("Contains wrong")
	}
}

func TestAABBIntersectRay(t *testing.T) {
	b := NewAABB(New(-1, -1, -1), New(1, 1, 1))
	origin := New(0, 0, -5)
	dir := New(0, 0, 1)
	inv := New(1/dir.X, 1/dir.Y, 1/dir.Z)
	t0, t1, ok := b.IntersectRay(origin, inv, 0, math.Inf(1))
	if !ok {
		t.Fatal("ray should hit box")
	}
	if !approx(t0, 4) || !approx(t1, 6) {
		t.Errorf("interval = [%v, %v], want [4, 6]", t0, t1)
	}
	// Miss.
	origin = New(5, 5, -5)
	if _, _, ok := b.IntersectRay(origin, inv, 0, math.Inf(1)); ok {
		t.Error("offset ray should miss box")
	}
	// Ray starting inside.
	t0, t1, ok = b.IntersectRay(New(0, 0, 0), inv, 0, math.Inf(1))
	if !ok || !approx(t0, 0) || !approx(t1, 1) {
		t.Errorf("inside ray = [%v %v] ok=%v", t0, t1, ok)
	}
}

// Property: if a point is inside the box, a ray from far away toward it hits.
func TestAABBRayHitProperty(t *testing.T) {
	b := NewAABB(New(-3, -2, -1), New(4, 5, 6))
	f := func(px, py, pz float64) bool {
		p := New(
			math.Mod(math.Abs(clampRange(px)), 7)-3,
			math.Mod(math.Abs(clampRange(py)), 7)-2,
			math.Mod(math.Abs(clampRange(pz)), 7)-1,
		)
		if !b.Contains(p) {
			return true // only testing interior points
		}
		origin := New(100, 90, 80)
		dir := p.Sub(origin).Norm()
		inv := New(1/dir.X, 1/dir.Y, 1/dir.Z)
		_, _, ok := b.IntersectRay(origin, inv, 0, math.Inf(1))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMinMaxMatchMath holds Min, Max, MinComp and MaxComp to math.Min and
// math.Max on the IEEE special values (-0 is below +0, a NaN wins), except
// that a NaN wins over the infinity math.Min and math.Max let win.
func TestMinMaxMatchMath(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	nanWins := func(f func(a, b float64) float64) func(a, b float64) float64 {
		return func(a, b float64) float64 {
			if math.IsNaN(a) || math.IsNaN(b) {
				return math.NaN()
			}
			return f(a, b)
		}
	}
	refMin, refMax := nanWins(math.Min), nanWins(math.Max)
	same := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return a == b && math.Signbit(a) == math.Signbit(b)
	}
	for _, x := range vals {
		for _, y := range vals {
			for _, z := range vals {
				v, u := New(x, y, z), New(z, x, y)
				mn, mx := v.Min(u), v.Max(u)
				for i := 0; i < 3; i++ {
					if a, b := v.Axis(i), u.Axis(i); !same(mn.Axis(i), refMin(a, b)) || !same(mx.Axis(i), refMax(a, b)) {
						t.Errorf("%v.Min/Max(%v) axis %d = %v/%v, want %v/%v",
							v, u, i, mn.Axis(i), mx.Axis(i), refMin(a, b), refMax(a, b))
					}
				}
				if got, want := v.MinComp(), refMin(x, refMin(y, z)); !same(got, want) {
					t.Errorf("%v.MinComp() = %v, want %v", v, got, want)
				}
				if got, want := v.MaxComp(), refMax(x, refMax(y, z)); !same(got, want) {
					t.Errorf("%v.MaxComp() = %v, want %v", v, got, want)
				}
			}
		}
	}
}
