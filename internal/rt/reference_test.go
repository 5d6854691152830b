package rt

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// The reference is the sphere renderer this package had before it traced
// tiles as packets, kept as it was: one traversal per pixel, each node's
// children clipped per ray. The differential tests below hold
// RaycastSpheresWithBVH to it bit for bit.

func refIntersect(b *SphereBVH, origin, dir vec.V3, tMin, tMax float64) (Hit, bool) {
	nodes := b.nodes
	if len(nodes) == 0 {
		return Hit{}, false
	}
	ix, iy, iz := safeInv(dir.X), safeInv(dir.Y), safeInv(dir.Z)
	nx, fx := 0, 3
	if dir.X < 0 {
		nx, fx = 3, 0
	}
	ny, fy := 1, 4
	if dir.Y < 0 {
		ny, fy = 4, 1
	}
	nz, fz := 2, 5
	if dir.Z < 0 {
		nz, fz = 5, 2
	}
	type entry struct {
		node int32
		t    float64
	}
	var stack [maxDepth + 1]entry
	sp := 0

	bestT, bestI := tMax, -1
	a := dir.Dot(dir)
	r2 := b.radius * b.radius

	ni := int32(0)
walk:
	for {
		nd := &nodes[ni]
		if nd.count == 0 {
			li := nd.left
			lb, rb := &nodes[li].bounds, &nodes[li+1].bounds
			lt0, lt1 := clip(lb[nx], lb[fx], origin.X, ix, tMin, bestT)
			lt0, lt1 = clip(lb[ny], lb[fy], origin.Y, iy, lt0, lt1)
			lt0, lt1 = clip(lb[nz], lb[fz], origin.Z, iz, lt0, lt1)
			rt0, rt1 := clip(rb[nx], rb[fx], origin.X, ix, tMin, bestT)
			rt0, rt1 = clip(rb[ny], rb[fy], origin.Y, iy, rt0, rt1)
			rt0, rt1 = clip(rb[nz], rb[fz], origin.Z, iz, rt0, rt1)
			lok, rok := lt0 <= lt1, rt0 <= rt1
			switch {
			case lok && rok:
				if lt0 <= rt0 {
					stack[sp] = entry{li + 1, rt0}
					ni = li
				} else {
					stack[sp] = entry{li, lt0}
					ni = li + 1
				}
				sp++
				continue
			case lok:
				ni = li
				continue
			case rok:
				ni = li + 1
				continue
			}
		} else {
			s := b.prims[nd.left : nd.left+nd.count]
			for i := range s {
				oc := origin.Sub(v3(s[i].c))
				half := oc.Dot(dir)
				cc := oc.Dot(oc) - r2
				disc := half*half - a*cc
				if disc < 0 {
					continue
				}
				sq := math.Sqrt(disc)
				t := (-half - sq) / a
				if t <= tMin {
					t = (-half + sq) / a
				}
				if t <= tMin || t >= bestT {
					continue
				}
				bestT, bestI = t, int(nd.left)+i
			}
		}
		for {
			if sp == 0 {
				break walk
			}
			sp--
			if stack[sp].t < bestT {
				ni = stack[sp].node
				break
			}
		}
	}
	if bestI < 0 {
		return Hit{}, false
	}
	p := &b.prims[bestI]
	hitP := origin.Add(dir.Scale(bestT))
	return Hit{T: bestT, Particle: int(p.id), Normal: hitP.Sub(v3(p.c)).Norm()}, true
}

// clip narrows the ray interval (t0, t1) to one slab: near and far are the
// planes the ray enters and leaves it through, o and inv the ray's origin
// and inverse direction on that axis: cut with each plane offset computed
// per ray. Comparisons ignore a NaN plane as cut's do.
func clip(near, far float32, o, inv, t0, t1 float64) (float64, float64) {
	if t := (float64(near) - o) * inv; t > t0 {
		t0 = t
	}
	if t := (float64(far) - o) * inv; t < t1 {
		t1 = t
	}
	return t0, t1
}

func refRaycastSpheresWithBVH(frame *fb.Frame, p *data.PointCloud, bvh *SphereBVH, cam *camera.Camera, opt SphereOptions) error {
	colors, err := new(Scratch).scalarColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
	if err != nil {
		return err
	}
	light := cam.Eye.Sub(cam.Center).Norm()

	w, h := frame.W, frame.H
	gen := cam.NewRayGen(w, h)
	par.ForGrained(h, 0, 4, func(y0, y1 int) {
		for x0 := 0; x0 < w; x0 += 8 {
			x1 := min(x0+8, w)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					ray := gen.Ray(x, y)
					hit, ok := refIntersect(bvh, ray.Origin, ray.Dir, cam.Near, cam.Far)
					if !ok {
						continue
					}
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
	})
	return nil
}

// renderBoth renders p as spheres of the given radius from cam at size x
// size with the packet renderer and the reference, from one tree.
func renderBoth(t *testing.T, p *data.PointCloud, radius float64, cam *camera.Camera, size int) (got, want *fb.Frame) {
	t.Helper()
	bvh := BuildSphereBVH(p, radius, MedianSplit)
	opt := SphereOptions{ColorField: "speed"}
	got, want = fb.New(size, size), fb.New(size, size)
	if err := RaycastSpheresWithBVH(got, p, bvh, cam, opt); err != nil {
		t.Fatal(err)
	}
	if err := refRaycastSpheresWithBVH(want, p, bvh, cam, opt); err != nil {
		t.Fatal(err)
	}
	if want.CoveredPixels() == 0 {
		t.Fatal("the reference covered no pixel: the comparison measures nothing")
	}
	return got, want
}

// requireSameFrame fails unless got and want agree on every pixel's
// depth and, with colors set, its colour — as values, bit for bit.
func requireSameFrame(t *testing.T, name string, got, want *fb.Frame, colors bool) {
	t.Helper()
	for i := range want.Depth {
		if got.Depth[i] != want.Depth[i] || colors && got.Color[i] != want.Color[i] {
			t.Fatalf("%s: pixel (%d,%d): got %v %v, reference %v %v", name,
				i%want.W, i/want.W, got.Color[i], got.Depth[i], want.Color[i], want.Depth[i])
		}
	}
}

// cosmoCloud is the benchmark's particle input: a cosmo step with its
// speed field, the field the raycast workloads colour by.
func cosmoCloud(t testing.TB, particles int, seed int64) *data.PointCloud {
	t.Helper()
	params := cosmo.DefaultParams()
	params.Particles, params.Seed = particles, seed
	p, err := cosmo.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	p.SpeedField()
	return p
}

// TestPacketsMatchReferenceCosmo renders the two cosmo raycast workloads'
// sizes, every orbit image of a three-image step, and requires the
// packet renderer's frames to equal the per-ray reference's.
func TestPacketsMatchReferenceCosmo(t *testing.T) {
	sizes := []struct{ particles, pixels int }{{60_000, 352}, {30_000, 224}}
	if testing.Short() {
		sizes = sizes[1:]
	}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			p := cosmoCloud(t, sz.particles, seed)
			for k := 0; k < 3; k++ {
				cam := orbitCamera(p.Bounds(), k, 3)
				got, want := renderBoth(t, p, geom.DefaultSplatRadius(p), &cam, sz.pixels)
				requireSameFrame(t, "cosmo", got, want, true)
			}
		}
	}
}

// TestPacketsMatchReferenceInsideCloud puts the camera inside the cloud,
// where tiles straddle an axis-sign change and must fall back to one-ray
// packets, and requires frames equal to the reference's.
func TestPacketsMatchReferenceInsideCloud(t *testing.T) {
	const size = 160
	p := cosmoCloud(t, 20_000, 4)
	b := p.Bounds()
	for _, look := range []vec.V3{vec.New(1, 0.2, 0.1), vec.New(-0.3, -1, 0.4), vec.New(0.05, 0.1, -1)} {
		cam := camera.LookAt(b.Center(), b.Center().Add(look), vec.New(0, 1, 0))
		cam.Near, cam.Far = 1e-3, b.Diagonal()
		// Both kinds of tile must occur, or the test checks one path only.
		gen := cam.NewRayGen(size, size)
		mixed, coherent := 0, 0
		for y0 := 0; y0 < size; y0 += tileH {
			for x0 := 0; x0 < size; x0 += tileW {
				var pk packet
				for y := y0; y < y0+tileH; y++ {
					for x := x0; x < x0+tileW; x++ {
						pk.add(gen.Ray(x, y).Dir, cam.Far)
					}
				}
				if pk.coherent() {
					coherent++
				} else {
					mixed++
				}
			}
		}
		if mixed == 0 || coherent == 0 {
			t.Fatalf("look %v: %d mixed-sign and %d coherent tiles; want both", look, mixed, coherent)
		}
		got, want := renderBoth(t, p, geom.DefaultSplatRadius(p), &cam, size)
		requireSameFrame(t, "inside", got, want, true)
	}
}

// TestPacketsMatchReferenceRandomCloud covers uniform, unclustered
// spheres from the default camera, at a size that is no multiple of the
// tile so partial tiles run too.
func TestPacketsMatchReferenceRandomCloud(t *testing.T) {
	p := randomCloud(8_000, 21)
	p.SpeedField()
	cam := camera.ForBounds(p.Bounds())
	got, want := renderBoth(t, p, geom.DefaultSplatRadius(p), &cam, 101)
	requireSameFrame(t, "random", got, want, true)
}

// TestPacketsMatchReferenceLattice renders lattice spheres of radius 0.5,
// whose boxes touch their extreme spheres and which tie in T, so which of two tied spheres colours a pixel depends on visiting
// order: depth and coverage must agree, colour need not.
func TestPacketsMatchReferenceLattice(t *testing.T) {
	p := latticeCloud(3_000, 12)
	p.SpeedField()
	for k := 0; k < 3; k++ {
		cam := orbitCamera(p.Bounds(), k, 3)
		got, want := renderBoth(t, p, 0.5, &cam, 96)
		requireSameFrame(t, "lattice", got, want, false)
		if got.CoveredPixels() != want.CoveredPixels() {
			t.Errorf("view %d: covered %d pixels, reference %d", k, got.CoveredPixels(), want.CoveredPixels())
		}
	}
}
