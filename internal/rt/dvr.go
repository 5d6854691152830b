package rt

import (
	"fmt"
	"math"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// DVROptions configures direct volume rendering.
type DVROptions struct {
	// Field names the grid scalar.
	Field string
	// ScalarLo/Hi normalize scalars; equal values select the field range.
	ScalarLo, ScalarHi float32
	// OpacityScale controls overall extinction: the opacity contributed
	// by one voxel-length step at normalized scalar 1.0. Default 0.05.
	OpacityScale float64
}

// opacityGamma shapes the scalar-to-opacity transfer: opacity ~
// scalar^opacityGamma, which emphasizes high values.
const opacityGamma = 2

// RaycastVolume performs direct volume rendering (emission-absorption,
// front-to-back alpha compositing with early termination) — the
// full-volume alternative to slices and isosurfaces, provided as an
// extension algorithm the paper's architecture anticipates ("the
// visualization proxy is extended to include any new algorithm the user
// may wish to study", §VII). Cost per ray is O(N^(1/3)) like the
// ray-marched isosurface, without the early exit on a crossing.
func RaycastVolume(frame *fb.Frame, g *data.StructuredGrid, cam *camera.Camera, opt DVROptions) error {
	f, err := g.Field(opt.Field)
	if err != nil {
		return err
	}
	lo, hi := opt.ScalarLo, opt.ScalarHi
	if lo >= hi {
		lo, hi = f.MinMax()
	}
	scale := 0.0
	if hi > lo {
		scale = 1 / float64(hi-lo)
	}
	opScale := opt.OpacityScale
	if opScale <= 0 {
		opScale = 0.05
	}
	bounds := g.Bounds()
	step := g.Spacing.MinComp()
	if step <= 0 {
		return fmt.Errorf("rt: grid has non-positive spacing")
	}

	w, h := frame.W, frame.H
	gen := cam.NewRayGen(w, h)
	par.ForGrained(h, 0, 2, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				ray := gen.Ray(x, y)
				invDir := vec.V3{X: safeInv(ray.Dir.X), Y: safeInv(ray.Dir.Y), Z: safeInv(ray.Dir.Z)}
				t0, t1, ok := bounds.IntersectRay(ray.Origin, invDir, cam.Near, cam.Far)
				if !ok {
					continue
				}
				var accum vec.V3
				alpha := 0.0
				firstT := math.Inf(1)
				for t := t0; t < t1; t += step {
					p := ray.Origin.Add(ray.Dir.Scale(t))
					s := float64(g.Sample(f, p)-lo) * scale
					if s <= 0 {
						continue
					}
					if s > 1 {
						s = 1
					}
					a := opScale * math.Pow(s, opacityGamma)
					if a <= 0 {
						continue
					}
					if math.IsInf(firstT, 1) {
						firstT = t
					}
					c := fb.Hot.Lookup(s)
					// Front-to-back compositing.
					accum = accum.Add(c.Scale(a * (1 - alpha)))
					alpha += a * (1 - alpha)
					if alpha >= 0.98 {
						break
					}
				}
				if alpha <= 0 {
					continue
				}
				frame.DepthSet(x, y, firstT, accum)
			}
		}
		ctrRays.Add(int64((y1 - y0) * w))
	})
	return nil
}
