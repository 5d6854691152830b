package geom

import (
	"fmt"
	"math"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/mempool"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Per-render scratch pools. The sprite/impostor lists are handed to the
// caller, who may return them with PutSprites/PutImpostors after drawing
// (optional, per the mempool ownership convention); colors and keep masks
// stay internal and recycle every call.
var (
	spritePool   mempool.SlicePool[raster.Sprite]
	impostorPool mempool.SlicePool[raster.Impostor]
	colorPool    mempool.SlicePool[vec.V3]
	keepPool     mempool.SlicePool[bool]
)

// PutSprites returns a slice obtained from MapPoints to the pool. The
// slice must not be used afterwards.
func PutSprites(s []raster.Sprite) { spritePool.Put(s) }

// PutImpostors returns a slice obtained from MapSplats to the pool. The
// slice must not be used afterwards.
func PutImpostors(s []raster.Impostor) { impostorPool.Put(s) }

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
// extraction cost the experiments measure.
func MapPoints(p *data.PointCloud, cam *camera.Camera, w, h int, opt PointsOptions) ([]raster.Sprite, error) {
	colors, err := particleColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
	if err != nil {
		return nil, err
	}
	sprites := spritePool.Get(p.Count())
	keep := keepPool.Get(p.Count())
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
	// Compact in place: out aliases sprites' backing array, so ownership of
	// the pooled slice transfers to the caller through the return.
	out := sprites[:0]
	for i, k := range keep {
		if k {
			out = append(out, sprites[i])
		}
	}
	keepPool.Put(keep)
	colorPool.Put(colors)
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
// so nearer particles draw larger.
func MapSplats(p *data.PointCloud, cam *camera.Camera, w, h int, opt SplatOptions) ([]raster.Impostor, error) {
	colors, err := particleColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
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

	imps := impostorPool.Get(p.Count())
	keep := keepPool.Get(p.Count())
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
	keepPool.Put(keep)
	colorPool.Put(colors)
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

// particleColors maps the named field through Viridis, normalizing
// by [lo, hi] (or the field's min/max when lo == hi). A missing name
// yields constant white.
func particleColors(p *data.PointCloud, fieldName string, lo, hi float32) ([]vec.V3, error) {
	colors := colorPool.Get(p.Count())
	if fieldName == "" {
		white := vec.New(1, 1, 1)
		for i := range colors {
			colors[i] = white
		}
		return colors, nil
	}
	f, err := p.Field(fieldName)
	if err != nil {
		colorPool.Put(colors)
		return nil, fmt.Errorf("geom: color field: %w", err)
	}
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
