// Package blast synthesizes xRAGE-like asteroid-impact volume datasets.
// The paper's grid workload is the temperature field around an asteroid
// ocean strike, resampled from AMR onto structured grids of up to
// 1840x1120x960 (§IV-A). We replace the proprietary dump with an analytic
// Sedov-Taylor-flavoured blast: a hot, expanding shock shell over an
// ambient gradient, plus a buried "asteroid" density anomaly and
// deterministic multi-octave turbulence so that isosurfaces are closed,
// bumpy, and non-trivial at every isovalue the sweeps visit — the
// properties slicing and isosurfacing actually exercise.
package blast

import (
	"fmt"
	"math"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Params configures the synthetic impact volume.
type Params struct {
	// NX, NY, NZ are the grid vertex counts.
	NX, NY, NZ int
	// BoxSize is the world edge length of the longest axis.
	BoxSize float64
	// TimeStep advances the blast front; the paper processes 12 steps.
	TimeStep int
	// Seed perturbs the turbulence phases.
	Seed int64
}

// SmallParams, MediumParams and LargeParams mirror the paper's three
// problem sizes at 1/10 linear scale (the paper's small/medium/large are
// 610x375x320, 1280x750x640, 1840x1120x960).
func SmallParams() Params  { return Params{NX: 61, NY: 38, NZ: 32, BoxSize: 10, Seed: 1} }
func MediumParams() Params { return Params{NX: 128, NY: 75, NZ: 64, BoxSize: 10, Seed: 1} }
func LargeParams() Params  { return Params{NX: 184, NY: 112, NZ: 96, BoxSize: 10, Seed: 1} }

// Generate synthesizes the volume for p with fields "temperature",
// "density" and "pressure". It is deterministic and parallel over z-slabs.
func Generate(p Params) (*data.StructuredGrid, error) {
	if p.NX < 2 || p.NY < 2 || p.NZ < 2 {
		return nil, fmt.Errorf("blast: grid dims must be >= 2, got %dx%dx%d", p.NX, p.NY, p.NZ)
	}
	if p.BoxSize <= 0 {
		return nil, fmt.Errorf("blast: box size must be positive, got %g", p.BoxSize)
	}
	g := data.NewStructuredGrid(p.NX, p.NY, p.NZ)
	maxDim := p.NX
	if p.NY > maxDim {
		maxDim = p.NY
	}
	if p.NZ > maxDim {
		maxDim = p.NZ
	}
	h := p.BoxSize / float64(maxDim-1)
	g.Spacing = vec.Splat(h)

	field := blastField{
		// Impact point: on the "ocean surface" plane one third up the box.
		impact: vec.New(
			0.5*h*float64(p.NX-1),
			0.38*h*float64(p.NY-1),
			0.5*h*float64(p.NZ-1),
		),
		// Shock radius grows ~ t^(2/5) (Sedov-Taylor).
		shockR: 0.12 * p.BoxSize * math.Pow(float64(p.TimeStep)+1, 0.4),
		box:    p.BoxSize,
		seed:   p.Seed,
	}

	temp := make([]float32, g.Count())
	dens := make([]float32, g.Count())
	pres := make([]float32, g.Count())

	par.For(p.NZ, 0, func(k int) {
		idx := g.Index(0, 0, k)
		for j := 0; j < p.NY; j++ {
			for i := 0; i < p.NX; i++ {
				pos := g.VertexPos(i, j, k)
				t, d := field.eval(pos)
				temp[idx] = float32(t)
				dens[idx] = float32(d)
				pres[idx] = float32(t * d) // ideal-gas-like
				idx++
			}
		}
	})

	if err := g.AddField("temperature", temp); err != nil {
		return nil, err
	}
	if err := g.AddField("density", dens); err != nil {
		return nil, err
	}
	if err := g.AddField("pressure", pres); err != nil {
		return nil, err
	}
	return g, nil
}

type blastField struct {
	impact vec.V3
	shockR float64
	box    float64
	seed   int64
}

// eval returns (temperature, density) at world position p. Temperature is
// normalized to roughly [0, 1] so that isovalue sweeps across (0, 1) all
// intersect the shell.
func (f blastField) eval(p vec.V3) (temperature, density float64) {
	r := p.Sub(f.impact).Len()
	// Shock shell: hot, thin, with turbulent corrugation.
	shell := math.Exp(-sq((r-f.shockR)/(0.08*f.box+1e-9)) * 4)
	// Fireball interior: hot core decaying outward.
	core := math.Exp(-sq(r / (0.6 * f.shockR)))
	// Ambient stratification: cooler with height (Y).
	ambient := 0.15 * (1 - p.Y/f.box)
	// Multi-octave turbulence corrugates the shell so isosurfaces are
	// bumpy (marching cubes emits realistic triangle counts).
	turb := f.noise(p.Scale(3))*0.5 + f.noise(p.Scale(7))*0.25 + f.noise(p.Scale(13))*0.125

	temperature = clamp01(0.85*shell + 0.6*core + ambient + 0.12*turb*shell)

	// Density: water below the surface plane, air above, evacuated cavity
	// inside the fireball, compressed at the shell.
	waterline := f.impact.Y
	base := 0.1
	if p.Y < waterline {
		base = 1.0
	}
	density = base*(1-0.8*core) + 1.5*shell*0.3
	return temperature, density
}

// noise is a cheap deterministic value-noise: hash the lattice cell,
// trilinearly interpolate. Range roughly [-1, 1].
func (f blastField) noise(p vec.V3) float64 {
	xi, xf := math.Floor(p.X), p.X-math.Floor(p.X)
	yi, yf := math.Floor(p.Y), p.Y-math.Floor(p.Y)
	zi, zf := math.Floor(p.Z), p.Z-math.Floor(p.Z)
	h := func(dx, dy, dz float64) float64 {
		return hash3(int64(xi)+int64(dx), int64(yi)+int64(dy), int64(zi)+int64(dz), f.seed)
	}
	// Smoothstep fade.
	u := xf * xf * (3 - 2*xf)
	v := yf * yf * (3 - 2*yf)
	w := zf * zf * (3 - 2*zf)
	lerp := func(a, b, t float64) float64 { return a + t*(b-a) }
	c00 := lerp(h(0, 0, 0), h(1, 0, 0), u)
	c10 := lerp(h(0, 1, 0), h(1, 1, 0), u)
	c01 := lerp(h(0, 0, 1), h(1, 0, 1), u)
	c11 := lerp(h(0, 1, 1), h(1, 1, 1), u)
	return lerp(lerp(c00, c10, v), lerp(c01, c11, v), w)
}

// hash3 maps a lattice point to [-1, 1] deterministically.
func hash3(x, y, z, seed int64) float64 {
	h := uint64(x)*0x8da6b343 + uint64(y)*0xd8163841 + uint64(z)*0xcb1ab31f + uint64(seed)*0x165667b1
	h ^= h >> 13
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%2000000)/1000000 - 1
}

func sq(x float64) float64 { return x * x }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
