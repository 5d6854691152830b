package camera

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/vec"
)

func TestProjectCenterHitsImageCenter(t *testing.T) {
	cam := LookAt(vec.New(0, 0, 10), vec.V3{}, vec.New(0, 1, 0))
	pr := cam.NewProjector(640, 480)
	x, y, depth, ok := pr.Project(vec.V3{})
	if !ok {
		t.Fatal("center not visible")
	}
	if math.Abs(x-320) > 1e-6 || math.Abs(y-240) > 1e-6 {
		t.Errorf("center projects to (%v, %v)", x, y)
	}
	if math.Abs(depth-10) > 1e-9 {
		t.Errorf("depth = %v, want 10", depth)
	}
}

func TestProjectBehindCamera(t *testing.T) {
	cam := LookAt(vec.New(0, 0, 10), vec.V3{}, vec.New(0, 1, 0))
	pr := cam.NewProjector(100, 100)
	if _, _, _, ok := pr.Project(vec.New(0, 0, 20)); ok {
		t.Error("point behind camera reported visible")
	}
}

func TestProjectUpIsUp(t *testing.T) {
	cam := LookAt(vec.New(0, 0, 10), vec.V3{}, vec.New(0, 1, 0))
	pr := cam.NewProjector(100, 100)
	_, yTop, _, ok := pr.Project(vec.New(0, 1, 0))
	if !ok {
		t.Fatal("top point not visible")
	}
	_, yCenter, _, _ := pr.Project(vec.V3{})
	if yTop >= yCenter {
		t.Errorf("world +Y should be up on screen: yTop=%v yCenter=%v", yTop, yCenter)
	}
}

func TestRayThroughCenterPointsForward(t *testing.T) {
	cam := LookAt(vec.New(0, 0, 10), vec.V3{}, vec.New(0, 1, 0))
	r := cam.RayThroughF(50, 50, 100, 100)
	if r.Origin != cam.Eye {
		t.Error("ray origin != eye")
	}
	want := vec.New(0, 0, -1)
	if r.Dir.Sub(want).Len() > 1e-9 {
		t.Errorf("center ray dir = %v", r.Dir)
	}
}

// Property: Project and RayThrough are inverses — casting a ray through
// the projected window position of a point passes through that point.
func TestProjectRayConsistencyProperty(t *testing.T) {
	cam := ForBounds(vec.NewAABB(vec.New(-1, -1, -1), vec.New(1, 1, 1)))
	const w, h = 512, 512
	pr := cam.NewProjector(w, h)
	f := func(px, py, pz float64) bool {
		p := vec.New(math.Mod(px, 1), math.Mod(py, 1), math.Mod(pz, 1))
		if !p.IsFinite() {
			return true
		}
		x, y, depth, ok := pr.Project(p)
		if !ok {
			return true
		}
		r := cam.RayThroughF(x, y, w, h)
		// Distance from p to the ray must be tiny relative to depth.
		d := p.Sub(r.Origin)
		along := d.Dot(r.Dir)
		perp := d.Sub(r.Dir.Scale(along)).Len()
		return perp < 1e-6*(1+depth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForBoundsSeesWholeBox(t *testing.T) {
	b := vec.NewAABB(vec.New(0, 0, 0), vec.New(10, 20, 5))
	cam := ForBounds(b)
	const w, h = 256, 256
	pr := cam.NewProjector(w, h)
	corners := []vec.V3{
		b.Min, b.Max,
		{X: b.Min.X, Y: b.Min.Y, Z: b.Max.Z},
		{X: b.Min.X, Y: b.Max.Y, Z: b.Min.Z},
		{X: b.Max.X, Y: b.Min.Y, Z: b.Min.Z},
		{X: b.Max.X, Y: b.Max.Y, Z: b.Min.Z},
		{X: b.Max.X, Y: b.Min.Y, Z: b.Max.Z},
		{X: b.Min.X, Y: b.Max.Y, Z: b.Max.Z},
	}
	for _, c := range corners {
		x, y, depth, ok := pr.Project(c)
		if !ok {
			t.Fatalf("corner %v behind camera", c)
		}
		if x < -w || x > 2*w || y < -h || y > 2*h {
			t.Errorf("corner %v projects far off screen: (%v, %v)", c, x, y)
		}
		if depth < cam.Near || depth > cam.Far {
			t.Errorf("corner %v depth %v outside clip [%v, %v]", c, depth, cam.Near, cam.Far)
		}
	}
}

func TestForBoundsDegenerateBox(t *testing.T) {
	// A point box must still produce a valid camera.
	cam := ForBounds(vec.NewAABB(vec.New(1, 1, 1), vec.New(1, 1, 1)))
	if cam.Near <= 0 || cam.Far <= cam.Near {
		t.Errorf("bad clip range: near=%v far=%v", cam.Near, cam.Far)
	}
	if !cam.Eye.IsFinite() {
		t.Error("eye not finite")
	}
}

func TestViewProjMatchesProject(t *testing.T) {
	cam := ForBounds(vec.NewAABB(vec.New(-2, -2, -2), vec.New(2, 2, 2)))
	const w, h = 400, 300
	p := vec.New(0.5, -0.7, 0.9)
	pr := cam.NewProjector(w, h)
	x, y, _, ok := pr.Project(p)
	if !ok {
		t.Fatal("point not visible")
	}
	// Same answer via the combined world-to-clip matrix.
	clip, wc := cam.Proj(w, h).MulM(cam.View()).MulPointW(p)
	nx := clip.X / wc
	ny := clip.Y / wc
	mx := (nx + 1) / 2 * w
	my := (1 - (ny+1)/2) * h
	if math.Abs(mx-x) > 1e-6 || math.Abs(my-y) > 1e-6 {
		t.Errorf("matrix path (%v,%v) vs Project (%v,%v)", mx, my, x, y)
	}
}

func TestRayGenMatchesRayThrough(t *testing.T) {
	cam := ForBounds(vec.NewAABB(vec.New(-3, -1, -2), vec.New(5, 4, 7)))
	const w, h = 133, 97
	gen := cam.NewRayGen(w, h)
	for py := 0; py < h; py += 7 {
		for px := 0; px < w; px += 11 {
			a := cam.RayThrough(px, py, w, h)
			b := gen.Ray(px, py)
			if a.Origin != b.Origin || a.Dir.Sub(b.Dir).Len() > 1e-12 {
				t.Fatalf("pixel (%d,%d): RayThrough %v vs RayGen %v", px, py, a.Dir, b.Dir)
			}
		}
	}
}

// projectRebuilding is the projection with both matrices rebuilt for the
// one point, as it was before Projector.
func projectRebuilding(c *Camera, p vec.V3, w, h int) (x, y, depth float64, ok bool) {
	cam := vec.LookAt(c.Eye, c.Center, c.Up).MulPoint(p)
	if cam.Z > -c.Near {
		return 0, 0, 0, false
	}
	clip, wc := vec.Perspective(c.FovY, float64(w)/float64(h), c.Near, c.Far).MulPointW(cam)
	if wc == 0 {
		return 0, 0, 0, false
	}
	inv := 1 / wc
	nx := clip.X * inv
	ny := clip.Y * inv
	x = (nx + 1) / 2 * float64(w)
	y = (1 - (ny+1)/2) * float64(h)
	return x, y, -cam.Z, true
}

// A Projector is the same arithmetic with the matrices hoisted, so every
// result carries the same bits — the geometry frames depend on it.
func TestProjectorMatchesRebuildingProject(t *testing.T) {
	cam := ForBounds(vec.NewAABB(vec.New(-3, -1, 0), vec.New(5, 4, 7)))
	const w, h = 352, 224
	pr := cam.NewProjector(w, h)
	rng := rand.New(rand.NewSource(19))
	behind := 0
	for i := 0; i < 10_000; i++ {
		// A box around the eye: about half the points are behind it.
		p := cam.Eye.Add(vec.New(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(40))
		wx, wy, wd, wok := projectRebuilding(&cam, p, w, h)
		x, y, d, ok := pr.Project(p)
		if got := [4]any{x, y, d, ok}; got != [4]any{wx, wy, wd, wok} {
			t.Fatalf("point %v projects to %v, the rebuilding arithmetic gives %v", p, got, [4]any{wx, wy, wd, wok})
		}
		if !ok {
			behind++
		}
	}
	if behind < 1000 || behind > 9000 {
		t.Fatalf("%d of 10000 points behind the near plane: the sample does not cover both sides", behind)
	}
	// Non-finite points take the view matrix's perspective divide (w is
	// NaN, not 1), so they are compared as bits: NaN equals nothing.
	bits := func(x, y, d float64, ok bool) [4]uint64 {
		return [4]uint64{math.Float64bits(x), math.Float64bits(y), math.Float64bits(d), map[bool]uint64{true: 1}[ok]}
	}
	for _, p := range []vec.V3{
		{X: math.Inf(1)}, {Y: math.Inf(-1)}, {Z: math.Inf(1)}, {X: math.NaN()},
		cam.Eye.Add(vec.New(0, 0, math.Inf(-1))), vec.New(math.Copysign(0, -1), 0, math.Copysign(0, -1)),
	} {
		wx, wy, wd, wok := projectRebuilding(&cam, p, w, h)
		if got, want := bits(pr.Project(p)), bits(wx, wy, wd, wok); got != want {
			t.Errorf("point %v projects to bits %x, the rebuilding arithmetic gives %x", p, got, want)
		}
	}
}
