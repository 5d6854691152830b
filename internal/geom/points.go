package geom

import (
	"fmt"
	"math"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vec"
)

// PutSprites hands back a slice obtained from MapPoints, which must not
// be used afterwards. MapPoints allocates afresh, so there is nothing to
// recycle: the slice is ordinary garbage, and PutSprites only marks where
// its use ends.
func PutSprites([]raster.Sprite) {}

// Mapper telemetry counters (TACC-Stats analog).
var (
	ctrSprites   = telemetry.Default.Counter("geom.sprites")
	ctrImpostors = telemetry.Default.Counter("geom.impostors")
)

// spriteSize is the VTK-points sprite edge length in pixels (the paper
// uses 1-3).
const spriteSize = 2

// PointsOptions configures the VTK-points mapper.
type PointsOptions struct {
	// ColorField names the per-particle scalar colormapped through
	// Viridis; empty selects constant white.
	ColorField string
	// ScalarLo/Hi pin the colormap normalization range; equal values
	// select the field's own range. Multi-rank renders must pin a global
	// range so every rank colors identically.
	ScalarLo, ScalarHi float32
}

// MapPoints projects every particle of p through cam and returns the
// screen-space sprites for the VTK-points technique: each particle
// becomes a fixed-size, fixed-color block (§IV-C). Particles behind the
// camera are dropped. The mapper is O(N) in the particle count —
// extraction cost the experiments measure. Every call allocates its
// sprites and scratch; a renderer owns a ParticleScratch instead.
func MapPoints(p *data.PointCloud, cam *camera.Camera, w, h int, opt PointsOptions) ([]raster.Sprite, error) {
	return new(ParticleScratch).MapPoints(p, cam, w, h, opt)
}

// ParticleScratch is the memory a particle renderer keeps from call to
// call: the sprites or impostors a mapper fills, their colour table and
// keep mask. Each is sized by the cloud's count and refilled in place (see
// data.Fit), so a renderer that owns one allocates only for a cloud larger
// than every one it mapped before. The zero value is ready to use; a
// ParticleScratch is not safe for concurrent use.
type ParticleScratch struct {
	sprites   []raster.Sprite
	impostors []raster.Impostor
	colors    []vec.V3
	keep      []bool
}

// MapPoints is the package's MapPoints into s's sprites, which stay valid
// until s maps again.
func (s *ParticleScratch) MapPoints(p *data.PointCloud, cam *camera.Camera, w, h int, opt PointsOptions) ([]raster.Sprite, error) {
	colors, err := s.particleColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
	if err != nil {
		return nil, err
	}
	s.sprites = data.Fit(s.sprites, p.Count())
	s.keep = data.Fit(s.keep, p.Count())
	sprites, keep := s.sprites, s.keep
	proj := cam.NewProjector(w, h)
	par.ForGrained(p.Count(), 0, 0, func(from, to int) {
		for i := from; i < to; i++ {
			x, y, depth, ok := proj.Project(p.Pos(i))
			keep[i] = ok && !(x < -8 || x >= float64(w)+8 || y < -8 || y >= float64(h)+8)
			if keep[i] {
				sprites[i] = raster.Sprite{
					X: x, Y: y, Depth: depth, Size: spriteSize, Color: colors[i],
				}
			}
		}
	})
	// Compact in place: out aliases sprites' backing array.
	out := sprites[:0]
	for i, k := range keep {
		if k {
			out = append(out, sprites[i])
		}
	}
	ctrSprites.Add(int64(len(out)))
	return out, nil
}

// SplatOptions configures the Gaussian splatter.
type SplatOptions struct {
	// WorldRadius is the particle radius in world units; <= 0 derives a
	// radius from the mean inter-particle spacing.
	WorldRadius float64
	// ColorField as in PointsOptions.
	ColorField string
	// ScalarLo/Hi as in PointsOptions.
	ScalarLo, ScalarHi float32
}

// MapSplats converts particles to shaded sphere impostors — the Gaussian
// splatter: one screen-facing primitive per particle whose per-pixel
// shading models a sphere (§IV-C). Projected radius honors perspective,
// so nearer particles draw larger. Every call allocates its impostors and
// scratch; a renderer owns a ParticleScratch instead.
func MapSplats(p *data.PointCloud, cam *camera.Camera, w, h int, opt SplatOptions) ([]raster.Impostor, error) {
	return new(ParticleScratch).MapSplats(p, cam, w, h, opt)
}

// MapSplats is the package's MapSplats into s's impostors, which stay
// valid until s maps again.
func (s *ParticleScratch) MapSplats(p *data.PointCloud, cam *camera.Camera, w, h int, opt SplatOptions) ([]raster.Impostor, error) {
	colors, err := s.particleColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
	if err != nil {
		return nil, err
	}
	radius := opt.WorldRadius
	if radius <= 0 {
		radius = DefaultSplatRadius(p)
	}
	// Perspective scale: a length r at camera depth d spans
	// r/d * (h/2) / tan(fovy/2) pixels vertically.
	pixPerUnit := float64(h) / 2 / math.Tan(cam.FovY/2)

	s.impostors = data.Fit(s.impostors, p.Count())
	s.keep = data.Fit(s.keep, p.Count())
	imps, keep := s.impostors, s.keep
	proj := cam.NewProjector(w, h)
	par.ForGrained(p.Count(), 0, 0, func(from, to int) {
		for i := from; i < to; i++ {
			x, y, depth, ok := proj.Project(p.Pos(i))
			pr := radius / depth * pixPerUnit
			keep[i] = ok && !(x+pr < 0 || x-pr >= float64(w) || y+pr < 0 || y-pr >= float64(h))
			if keep[i] {
				imps[i] = raster.Impostor{
					X: x, Y: y, Depth: depth,
					Radius:      pr,
					WorldRadius: radius,
					Color:       colors[i],
				}
			}
		}
	})
	out := imps[:0]
	for i, k := range keep {
		if k {
			out = append(out, imps[i])
		}
	}
	ctrImpostors.Add(int64(len(out)))
	return out, nil
}

// DefaultSplatRadius estimates a particle radius as a fraction of the
// mean inter-particle spacing (cube root of volume per particle).
func DefaultSplatRadius(p *data.PointCloud) float64 {
	if p.Count() == 0 {
		return 1
	}
	b := p.Bounds()
	vol := b.Size().X * b.Size().Y * b.Size().Z
	if vol <= 0 {
		return b.Diagonal()/100 + 1e-6
	}
	return 0.5 * math.Cbrt(vol/float64(p.Count()))
}

// particleColors maps the named field through Viridis into s's colour
// table, normalizing by [lo, hi] (or the field's min/max when lo == hi).
// An empty name yields constant white.
func (s *ParticleScratch) particleColors(p *data.PointCloud, fieldName string, lo, hi float32) ([]vec.V3, error) {
	if fieldName == "" {
		s.colors = data.Fit(s.colors, p.Count())
		white := vec.New(1, 1, 1)
		for i := range s.colors {
			s.colors[i] = white
		}
		return s.colors, nil
	}
	f, err := p.Field(fieldName)
	if err != nil {
		return nil, fmt.Errorf("geom: color field: %w", err)
	}
	s.colors = data.Fit(s.colors, p.Count())
	colors := s.colors
	if lo >= hi {
		lo, hi = f.MinMax()
	}
	scale := 0.0
	if hi > lo {
		scale = 1 / float64(hi-lo)
	}
	par.For(p.Count(), 0, func(i int) {
		colors[i] = fb.Viridis.Lookup(float64(f.Values[i]-lo) * scale)
	})
	return colors, nil
}
