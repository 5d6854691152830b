package rt

import (
	"fmt"
	"math"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Telemetry counters (TACC-Stats analog, §V-A): incremented in aggregate
// per scanline band so the hot loops stay counter-free.
var (
	ctrRays      = telemetry.Default.Counter("rt.rays")
	ctrRayHits   = telemetry.Default.Counter("rt.hits")
	ctrMarchated = telemetry.Default.Counter("rt.march_steps")
)

// The sphere renderer hands out scanline bands of tileH rows (the grain,
// so no band is taller) and walks each in tiles tileW pixels wide:
// neighbouring rays visit the same nodes, so a tile is traced as one
// packet (see SphereBVH.walk).
const (
	tileW = 8
	tileH = 4
)

// ambient is the ambient light fraction of the shaded renderers (spheres
// and ray-marched isosurfaces).
const ambient = 0.25

// SphereOptions configures sphere raycasting.
type SphereOptions struct {
	// Radius is the world-space sphere radius; <= 0 derives one from the
	// dataset density (same default as the Gaussian splatter so the two
	// pipelines are comparable in RMSE tests).
	Radius float64
	// ColorField names the per-particle scalar colormapped through
	// Viridis.
	ColorField string
	// ScalarLo/Hi pin the colormap normalization range; equal values
	// select the field's own range (multi-rank renders pin a global
	// range so ranks color identically).
	ScalarLo, ScalarHi float32
}

// RaycastSpheres renders the particles of p as world-space spheres into
// frame: an acceleration structure is built (O(N log N)), then one
// primary ray per pixel traverses it — cost sub-linear in N and fixed in
// the ray count (§IV-C "Raycast Spheres"). It returns the BVH so callers
// rendering multiple frames amortize the build, matching the paper's
// "once the initial data structure is built" behaviour.
func RaycastSpheres(frame *fb.Frame, p *data.PointCloud, cam *camera.Camera, opt SphereOptions) (*SphereBVH, error) {
	radius := opt.Radius
	if radius <= 0 {
		radius = geom.DefaultSplatRadius(p)
	}
	bvh := BuildSphereBVH(p, radius, MedianSplit)
	if err := RaycastSpheresWithBVH(frame, p, bvh, cam, opt); err != nil {
		return nil, err
	}
	return bvh, nil
}

// RaycastSpheresWithBVH renders using a prebuilt hierarchy. Every call
// allocates its colour table; a renderer owns a Scratch instead.
func RaycastSpheresWithBVH(frame *fb.Frame, p *data.PointCloud, bvh *SphereBVH, cam *camera.Camera, opt SphereOptions) error {
	return new(Scratch).RaycastSpheresWithBVH(frame, p, bvh, cam, opt)
}

// Scratch is the memory a sphere renderer keeps from frame to frame: its
// per-particle colour table, reallocated, at exact length, only for a
// larger cloud. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	colors []vec.V3
}

// RaycastSpheresWithBVH is the package's RaycastSpheresWithBVH on s's
// colour table.
func (s *Scratch) RaycastSpheresWithBVH(frame *fb.Frame, p *data.PointCloud, bvh *SphereBVH, cam *camera.Camera, opt SphereOptions) error {
	colors, err := s.scalarColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
	if err != nil {
		return err
	}
	light := cam.Eye.Sub(cam.Center).Norm() // headlight

	w, h := frame.W, frame.H
	gen := cam.NewRayGen(w, h)
	par.ForGrained(h, 0, tileH, func(y0, y1 int) {
		hits := 0
		var pk packet
		for x0 := 0; x0 < w; x0 += tileW {
			x1 := min(x0+tileW, w)
			pk.n = 0
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					pk.add(gen.Ray(x, y).Dir, cam.Far)
				}
			}
			bvh.trace(&pk, cam.Eye, cam.Near)
			i := 0
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					hit, ok := bvh.hit(&pk, i, cam.Eye)
					i++
					if !ok {
						continue
					}
					hits++
					lambert := hit.Normal.Dot(light)
					if lambert < 0 {
						lambert = 0
					}
					shade := ambient + (1-ambient)*lambert
					c := colors[hit.Particle].Scale(shade)
					frame.DepthSet(x, y, hit.T, c)
				}
			}
		}
		ctrRays.Add(int64((y1 - y0) * w))
		ctrRayHits.Add(int64(hits))
	})
	return nil
}

// scalarColors maps the named field through Viridis into s's colour
// table, normalizing by [lo, hi] (or the field's min/max when lo == hi).
// An empty name yields constant white.
func (s *Scratch) scalarColors(p *data.PointCloud, fieldName string, lo, hi float32) ([]vec.V3, error) {
	if fieldName == "" {
		s.colors = data.Fit(s.colors, p.Count())
		for i := range s.colors {
			s.colors[i] = vec.New(1, 1, 1)
		}
		return s.colors, nil
	}
	f, err := p.Field(fieldName)
	if err != nil {
		return nil, fmt.Errorf("rt: color field: %w", err)
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

// VolumeOptions configures volume raycasting (slices and isosurfaces).
type VolumeOptions struct {
	// Field names the grid scalar to visualize.
	Field string
	// ScalarLo/Hi normalize scalars; equal values select the field range.
	ScalarLo, ScalarHi float32
}

// RaycastSlice renders the cross-section of the grid with the plane
// through point with the given normal. Per-ray cost is O(1): one
// ray-plane intersection plus one trilinear sample (§IV-C "Slices and
// Isosurfaces in Raycasting"), so total cost is O(pixels) independent of
// the grid size.
func RaycastSlice(frame *fb.Frame, g *data.StructuredGrid, cam *camera.Camera, point, normal vec.V3, opt VolumeOptions) error {
	f, err := g.Field(opt.Field)
	if err != nil {
		return err
	}
	n := normal.Norm()
	if n == (vec.V3{}) {
		return fmt.Errorf("rt: slice plane normal is zero")
	}
	lo, hi := opt.ScalarLo, opt.ScalarHi
	if lo >= hi {
		lo, hi = f.MinMax()
	}
	scale := 0.0
	if hi > lo {
		scale = 1 / float64(hi-lo)
	}
	bounds := g.Bounds()

	w, h := frame.W, frame.H
	gen := cam.NewRayGen(w, h)
	par.ForGrained(h, 0, 4, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				ray := gen.Ray(x, y)
				denom := ray.Dir.Dot(n)
				if math.Abs(denom) < 1e-12 {
					continue
				}
				t := point.Sub(ray.Origin).Dot(n) / denom
				if t < cam.Near || t > cam.Far {
					continue
				}
				p := ray.Origin.Add(ray.Dir.Scale(t))
				if !bounds.Contains(p) {
					continue
				}
				s := float64(g.Sample(f, p)-lo) * scale
				frame.DepthSet(x, y, t, fb.Hot.Lookup(s))
			}
		}
	})
	return nil
}

// RaycastIsosurface renders the isoValue contour of the grid field by ray
// marching: each ray steps through the volume at ~1 voxel per step
// looking for a sign change, then bisects to refine the crossing. Per-ray
// cost is proportional to the 1-D resolution of the data — the N^(1/3)
// scaling the paper derives (§IV-C).
func RaycastIsosurface(frame *fb.Frame, g *data.StructuredGrid, cam *camera.Camera, isoValue float32, opt VolumeOptions) error {
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
	isoNorm := float64(isoValue-lo) * scale

	bounds := g.Bounds()
	step := g.Spacing.MinComp()
	if step <= 0 {
		return fmt.Errorf("rt: grid has non-positive spacing")
	}
	light := cam.Eye.Sub(cam.Center).Norm()

	w, h := frame.W, frame.H
	gen := cam.NewRayGen(w, h)
	par.ForGrained(h, 0, 2, func(y0, y1 int) {
		marchSteps := 0
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				ray := gen.Ray(x, y)
				invDir := vec.V3{X: safeInv(ray.Dir.X), Y: safeInv(ray.Dir.Y), Z: safeInv(ray.Dir.Z)}
				t0, t1, ok := bounds.IntersectRay(ray.Origin, invDir, cam.Near, cam.Far)
				if !ok {
					continue
				}
				// March.
				prevT := t0
				prevV := g.Sample(f, ray.Origin.Add(ray.Dir.Scale(t0)))
				found := false
				var hitT float64
				for t := t0 + step; t <= t1+step; t += step {
					marchSteps++
					tc := math.Min(t, t1)
					v := g.Sample(f, ray.Origin.Add(ray.Dir.Scale(tc)))
					if (prevV < isoValue) != (v < isoValue) {
						// Bisect [prevT, tc] to refine.
						a, bT := prevT, tc
						va := prevV
						for it := 0; it < 8; it++ {
							mid := (a + bT) / 2
							vm := g.Sample(f, ray.Origin.Add(ray.Dir.Scale(mid)))
							if (va < isoValue) != (vm < isoValue) {
								bT = mid
							} else {
								a = mid
								va = vm
							}
						}
						hitT = (a + bT) / 2
						found = true
						break
					}
					prevT, prevV = tc, v
					if tc >= t1 {
						break
					}
				}
				if !found {
					continue
				}
				p := ray.Origin.Add(ray.Dir.Scale(hitT))
				normal := g.Gradient(f, p).Norm()
				lambert := math.Abs(normal.Dot(light))
				shade := ambient + (1-ambient)*lambert
				frame.DepthSet(x, y, hitT, fb.Hot.Lookup(isoNorm).Scale(shade))
			}
		}
		ctrMarchated.Add(int64(marchSteps))
		ctrRays.Add(int64((y1 - y0) * w))
	})
	return nil
}
