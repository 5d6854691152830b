// Package cosmo synthesizes HACC-like cosmology particle datasets. The
// paper replays dark-sky n-body dumps (0.25-1 billion particles) whose
// defining visual structure is halo clustering: dense, roughly spherical
// overdensities embedded in a diffuse background, with virialized velocity
// dispersion inside halos and a bulk flow outside. This generator
// reproduces that workload shape deterministically from a seed:
//
//   - Halo centers are placed uniformly in the box with masses drawn from
//     a truncated power-law (Press-Schechter-like slope).
//   - Halo particles follow an NFW-like radial profile rho(r) ~
//     1/(r (1+r/rs)^2), sampled by inverse transform on the enclosed-mass
//     function, so projected images show the cuspy cores that make halo
//     identification easy — the paper's stated visualization task.
//   - Background particles are uniform with a Zel'dovich-flavoured bulk
//     velocity; halo particles add an isotropic virial dispersion that
//     scales with halo mass.
//
// Every particle draws from its own math/rand sequence, so the data do not
// depend on the worker count. The sequence is computed lazily, word by
// word, instead of seeding a 607-word source per particle; the output is
// bit-identical to rand.NewSource's.
//
// The renderers and samplers only observe positions, velocities, and IDs,
// which is exactly the payload the paper's simulation proxy presents to
// the in-situ interface, so the substitution preserves the code paths
// under study.
package cosmo

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Params configures the synthetic universe.
type Params struct {
	// Particles is the total particle count (background + halos).
	Particles int
	// BoxSize is the comoving box edge length (world units).
	BoxSize float64
	// Halos is the number of halos. Zero disables clustering.
	Halos int
	// HaloFraction is the fraction of particles assigned to halos
	// (the rest form the uniform background). Clamped to [0, 1].
	HaloFraction float64
	// Seed makes generation deterministic.
	Seed int64
	// TimeStep selects the output epoch; halos drift and contract with
	// step so multi-step experiments see evolving data.
	TimeStep int
}

// DefaultParams returns a small laptop-scale configuration that mirrors
// the paper's dataset proportions (many halos, ~70% clustered mass).
func DefaultParams() Params {
	return Params{
		Particles:    1_000_000,
		BoxSize:      100,
		Halos:        200,
		HaloFraction: 0.7,
		Seed:         1,
	}
}

// halo is an internal description of one overdensity.
type halo struct {
	center vec.V3
	mass   float64 // relative mass weight
	rs     float64 // NFW scale radius
	rvir   float64 // truncation radius
	sigma  float64 // 1-D velocity dispersion
	bulk   vec.V3  // bulk velocity of the halo
}

// Generate synthesizes the particle dataset for p. It is deterministic in
// p (including Seed and TimeStep) and parallelized across particles. Each
// particle draws from math/rand's sequence for a seed mixed from p.Seed,
// its index and p.TimeStep; the sequence is computed lazily (see stream),
// so a particle costs the few draws it makes, not a seeded source.
func Generate(p Params) (*data.PointCloud, error) {
	if p.Particles < 0 {
		return nil, fmt.Errorf("cosmo: negative particle count %d", p.Particles)
	}
	if p.BoxSize <= 0 {
		return nil, fmt.Errorf("cosmo: box size must be positive, got %g", p.BoxSize)
	}
	if p.HaloFraction < 0 {
		p.HaloFraction = 0
	}
	if p.HaloFraction > 1 {
		p.HaloFraction = 1
	}
	if p.Halos < 0 {
		p.Halos = 0
	}

	halos := makeHalos(p)
	nHalo := 0
	if p.Halos > 0 {
		nHalo = int(float64(p.Particles) * p.HaloFraction)
	}
	nBg := p.Particles - nHalo

	cloud := data.NewPointCloud(p.Particles)

	// Assign halo particles proportionally to halo mass. Compute the
	// cumulative mass table once; each particle binary-searches it.
	cum := make([]float64, len(halos))
	total := 0.0
	for i, h := range halos {
		total += h.mass
		cum[i] = total
	}

	// Per-particle generation must be reproducible regardless of worker
	// count, so each particle derives its own RNG stream from (seed, i).
	// One Rand per grain is re-seeded for each particle; its lazy source
	// makes that O(1).
	par.ForGrained(p.Particles, 0, 0, func(lo, hi int) {
		rng := rand.New(&stream{})
		for i := lo; i < hi; i++ {
			rng.Seed(p.Seed ^ int64(uint64(i)*0x9E3779B97F4A7C15) ^ int64(p.TimeStep)<<32)
			cloud.IDs[i] = int64(i)
			if i < nBg || len(halos) == 0 {
				genBackground(cloud, i, p, rng)
				continue
			}
			// Pick a halo by mass weight.
			u := rng.Float64() * total
			a, b := 0, len(cum)-1
			for a < b {
				mid := (a + b) / 2
				if cum[mid] < u {
					a = mid + 1
				} else {
					b = mid
				}
			}
			genHaloParticle(cloud, i, p, halos[a], rng)
		}
	})

	cloud.SpeedField()
	return cloud, nil
}

// makeHalos places the halo population deterministically.
func makeHalos(p Params) []halo {
	if p.Halos == 0 || p.HaloFraction == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Seed*7919 + 13))
	drift := 0.01 * float64(p.TimeStep) * p.BoxSize
	contraction := math.Pow(0.97, float64(p.TimeStep))
	halos := make([]halo, p.Halos)
	for i := range halos {
		// Truncated power-law mass function: P(m) ~ m^-1.9 on [1, 100].
		u := rng.Float64()
		m := math.Pow(1-u*(1-math.Pow(100, -0.9)), -1/0.9)
		rvir := 0.02 * p.BoxSize * math.Cbrt(m/10) * contraction
		ctr := vec.New(
			rng.Float64()*p.BoxSize,
			rng.Float64()*p.BoxSize,
			rng.Float64()*p.BoxSize,
		)
		// Halos drift coherently with epoch so time steps differ.
		dir := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Norm()
		ctr = wrapV(ctr.Add(dir.Scale(drift)), p.BoxSize)
		halos[i] = halo{
			center: ctr,
			mass:   m,
			rs:     rvir / 5, // concentration c = 5
			rvir:   rvir,
			sigma:  30 * math.Sqrt(m/10),
			bulk:   dir.Scale(50),
		}
	}
	return halos
}

func genBackground(cloud *data.PointCloud, i int, p Params, rng *rand.Rand) {
	pos := vec.New(
		rng.Float64()*p.BoxSize,
		rng.Float64()*p.BoxSize,
		rng.Float64()*p.BoxSize,
	)
	cloud.SetPos(i, pos)
	// Bulk flow: a large-scale sinusoidal velocity field plus thermal noise.
	k := 2 * math.Pi / p.BoxSize
	flow := vec.New(
		40*math.Sin(k*pos.Y)+rng.NormFloat64()*5,
		40*math.Sin(k*pos.Z)+rng.NormFloat64()*5,
		40*math.Sin(k*pos.X)+rng.NormFloat64()*5,
	)
	cloud.SetVel(i, flow)
}

func genHaloParticle(cloud *data.PointCloud, i int, p Params, h halo, rng *rand.Rand) {
	// Inverse-transform sampling of the NFW enclosed mass
	// M(<r) ~ ln(1+x) - x/(1+x), x=r/rs, truncated at rvir.
	c := h.rvir / h.rs
	mTot := math.Log(1+c) - c/(1+c)
	u := rng.Float64() * mTot
	// Solve ln(1+x) - x/(1+x) = u by bisection on [0, c].
	lo, hi := 0.0, c
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if math.Log(1+mid)-mid/(1+mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := (lo + hi) / 2 * h.rs

	// Isotropic direction.
	zc := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	s := math.Sqrt(1 - zc*zc)
	dir := vec.New(s*math.Cos(phi), s*math.Sin(phi), zc)
	pos := wrapV(h.center.Add(dir.Scale(r)), p.BoxSize)
	cloud.SetPos(i, pos)

	vel := h.bulk.Add(vec.New(
		rng.NormFloat64()*h.sigma,
		rng.NormFloat64()*h.sigma,
		rng.NormFloat64()*h.sigma,
	))
	cloud.SetVel(i, vel)
}

// wrapV applies periodic boundary conditions on [0, box).
func wrapV(v vec.V3, box float64) vec.V3 {
	return vec.New(wrap(v.X, box), wrap(v.Y, box), wrap(v.Z, box))
}

func wrap(x, box float64) float64 {
	x = math.Mod(x, box)
	if x < 0 {
		x += box
	}
	return x
}
