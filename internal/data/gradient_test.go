package data

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/vec"
)

// refSample and refGradient are Sample and Gradient as they were before
// Gradient looked each axis up once, kept as they were: every one of the
// gradient's six samples makes its own three axis lookups.
func refSample(g *StructuredGrid, f *Field, p vec.V3) float32 {
	fx := (p.X - g.Origin.X) / g.Spacing.X
	fy := (p.Y - g.Origin.Y) / g.Spacing.Y
	fz := (p.Z - g.Origin.Z) / g.Spacing.Z
	fx = clamp0(fx, float64(g.NX-1))
	fy = clamp0(fy, float64(g.NY-1))
	fz = clamp0(fz, float64(g.NZ-1))

	i0 := int(fx)
	j0 := int(fy)
	k0 := int(fz)
	if i0 > g.NX-2 {
		i0 = g.NX - 2
	}
	if j0 > g.NY-2 {
		j0 = g.NY - 2
	}
	if k0 > g.NZ-2 {
		k0 = g.NZ - 2
	}
	if i0 < 0 {
		i0 = 0
	}
	if j0 < 0 {
		j0 = 0
	}
	if k0 < 0 {
		k0 = 0
	}
	tx := fx - float64(i0)
	ty := fy - float64(j0)
	tz := fz - float64(k0)

	v := f.Values
	base := g.Index(i0, j0, k0)
	sx, sy := 1, g.NX
	sz := g.NX * g.NY
	c000 := float64(v[base])
	c100 := float64(v[base+sx])
	c010 := float64(v[base+sy])
	c110 := float64(v[base+sx+sy])
	c001 := float64(v[base+sz])
	c101 := float64(v[base+sx+sz])
	c011 := float64(v[base+sy+sz])
	c111 := float64(v[base+sx+sy+sz])

	c00 := c000 + tx*(c100-c000)
	c10 := c010 + tx*(c110-c010)
	c01 := c001 + tx*(c101-c001)
	c11 := c011 + tx*(c111-c011)
	c0 := c00 + ty*(c10-c00)
	c1 := c01 + ty*(c11-c01)
	return float32(c0 + tz*(c1-c0))
}

func refGradient(g *StructuredGrid, f *Field, p vec.V3) vec.V3 {
	hx := g.Spacing.X
	hy := g.Spacing.Y
	hz := g.Spacing.Z
	dx := float64(refSample(g, f, p.Add(vec.V3{X: hx}))) - float64(refSample(g, f, p.Sub(vec.V3{X: hx})))
	dy := float64(refSample(g, f, p.Add(vec.V3{Y: hy}))) - float64(refSample(g, f, p.Sub(vec.V3{Y: hy})))
	dz := float64(refSample(g, f, p.Add(vec.V3{Z: hz}))) - float64(refSample(g, f, p.Sub(vec.V3{Z: hz})))
	return vec.V3{X: dx / (2 * hx), Y: dy / (2 * hy), Z: dz / (2 * hz)}
}

func v3bits(v vec.V3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// gradientPoints returns where the differential test probes g: every
// vertex, the midpoint and a random point of every cell edge leaving a
// vertex (the gradient's own steps land on vertices and edges too),
// random points in and around the grid, points far outside it on every
// side (clamped), and points with signed-zero and non-finite coordinates.
func gradientPoints(g *StructuredGrid, rng *rand.Rand) []vec.V3 {
	var pts []vec.V3
	b := g.Bounds()
	size := b.Size()
	negZero := math.Copysign(0, -1)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				p := g.VertexPos(i, j, k)
				pts = append(pts, p)
				for _, step := range []vec.V3{{X: g.Spacing.X}, {Y: g.Spacing.Y}, {Z: g.Spacing.Z}} {
					pts = append(pts, p.Add(step.Scale(0.5)), p.Add(step.Scale(rng.Float64())))
				}
			}
		}
	}
	for n := 0; n < 500; n++ {
		u := vec.New(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		pts = append(pts, b.Min.Add(size.Mul(u)))
	}
	c := b.Center()
	for _, far := range []float64{-1e6, -3, 3, 1e6} {
		pts = append(pts,
			vec.New(c.X+far*size.X, c.Y, c.Z), vec.New(c.X, c.Y+far*size.Y, c.Z),
			vec.New(c.X, c.Y, c.Z+far*size.Z), c.Add(size.Scale(far)))
	}
	for _, z := range []float64{0, negZero} {
		pts = append(pts, vec.New(z, z, z), vec.New(z, c.Y, c.Z), vec.New(c.X, z, c.Z), vec.New(c.X, c.Y, z))
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		pts = append(pts, vec.New(bad, c.Y, c.Z), vec.New(c.X, bad, c.Z), vec.New(c.X, c.Y, bad))
	}
	return pts
}

// TestGradientMatchesSixSamples holds Gradient (nine axis lookups) and
// Sample to the six-Sample reference bit for bit, on grids with unit and
// non-unit spacing, an origin at zero, at a signed zero and elsewhere, the
// minimum two vertices along an axis, and fields holding NaNs.
func TestGradientMatchesSixSamples(t *testing.T) {
	negZero := math.Copysign(0, -1)
	wave := func(p vec.V3) float32 { return float32(math.Sin(3*p.X) + math.Cos(2*p.Z+p.Y)) }
	grids := []struct {
		name            string
		nx, ny, nz      int
		origin, spacing vec.V3
		nans            bool
	}{
		{"unit", 6, 5, 4, vec.V3{}, vec.Splat(1), false},
		{"odd-origin-spacing", 7, 2, 5, vec.New(-1.3, 2, 0.5), vec.New(0.3, 1.1, 0.7), false},
		{"signed-zero-origin", 4, 6, 3, vec.New(negZero, 0, negZero), vec.New(0.25, 0.5, 2), false},
		{"nan-values", 5, 5, 5, vec.New(10, -4, 7), vec.New(1.5, 0.1, 0.9), true},
	}
	for _, c := range grids {
		t.Run(c.name, func(t *testing.T) {
			g := NewStructuredGrid(c.nx, c.ny, c.nz)
			g.Origin, g.Spacing = c.origin, c.spacing
			f := g.FillField("wave", wave)
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			if c.nans {
				for i := range f.Values {
					if rng.Intn(7) == 0 {
						f.Values[i] = float32(math.NaN())
					}
				}
			}
			nanGradients := 0
			for _, p := range gradientPoints(g, rng) {
				if got, want := g.Sample(f, p), refSample(g, f, p); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("Sample(%v) = %v, reference %v", p, got, want)
				}
				got, want := g.Gradient(f, p), refGradient(g, f, p)
				if v3bits(got) != v3bits(want) {
					t.Fatalf("Gradient(%v) = %v (bits %x), reference %v (bits %x)", p, got, v3bits(got), want, v3bits(want))
				}
				if math.IsNaN(got.X) || math.IsNaN(got.Y) || math.IsNaN(got.Z) {
					nanGradients++
				}
			}
			if c.nans && nanGradients == 0 {
				t.Fatal("no gradient met a NaN value: the NaN case is not exercised")
			}
		})
	}
}
