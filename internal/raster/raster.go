// Package raster is ETH's software rasterizer — the stand-in for the
// OpenGL back-end that VTK's geometry pipeline hands its triangles to.
// It supports depth-tested triangles with Gouraud-interpolated colors,
// fixed-size point sprites (the paper's "VTK points" primitive), and
// shaded sphere impostors (the primitive behind Gaussian splatting).
//
// Parallelism: the frame is divided into horizontal bands; primitives are
// binned to the bands their bounding boxes overlap and each band is
// rasterized by one worker. Bands never share pixels, so no locks are
// needed in the inner loop — the same strategy tile-based GPU and software
// rasterizers (e.g. Mesa's llvmpipe) use.
package raster

import (
	"math"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Vertex is a screen-space vertex: X, Y in pixels, Depth in camera units
// (smaller = closer), and a linear RGB color.
type Vertex struct {
	X, Y  float64
	Depth float64
	Color vec.V3
}

// Sprite is a screen-space point: a square of Size pixels on a side
// (Size <= 1 renders one pixel), depth tested at a single depth.
type Sprite struct {
	X, Y  float64
	Depth float64
	Size  int
	Color vec.V3
}

// Impostor is a screen-space sphere impostor: a disk of Radius pixels
// shaded as a sphere lit by the light direction passed to DrawImpostors.
// WorldRadius carries the sphere radius in camera units so the depth
// buffer gets true sphere depths.
type Impostor struct {
	X, Y        float64
	Depth       float64
	Radius      float64 // pixels
	WorldRadius float64 // camera units
	Color       vec.V3
}

// DefaultBandHeight is the scanline-band height every primitive kind is
// binned and rasterized in: smaller bands balance load across workers,
// larger ones bin each primitive into fewer lists.
const DefaultBandHeight = 16

// DrawTriangles rasterizes the triangles tris, each three indices into
// verts, into f with depth testing and Gouraud color interpolation. A
// vertex shared by several triangles is stored once. workers <= 0 selects
// the default pool size.
//
// Binning runs on pooled scratch (zero steady-state allocation) and, for
// large triangle counts, in parallel: each worker bins a contiguous index
// chunk into private per-band lists, and each band drains its workers in
// chunk order, so the per-band rasterize order matches a serial pass.
func DrawTriangles(f *fb.Frame, verts []Vertex, tris [][3]int32, workers int) {
	// rasterizeTriangle indexes the frame directly; a frame with no
	// columns has no pixel for its clamped bounds to land on.
	if len(tris) == 0 || f.W == 0 {
		return
	}
	const bandHeight = DefaultBandHeight
	bands := (f.H + bandHeight - 1) / bandHeight
	wk := workers
	if wk <= 0 {
		wk = par.DefaultWorkers()
	}
	if wk > bands {
		wk = bands
	}
	binW := wk
	if len(tris) < parallelBinMin {
		binW = 1
	}
	s := getBins(binW * bands)
	if binW == 1 {
		binTriChunk(f, verts, tris, s, binW, bands, 0)
	} else {
		par.For(binW, binW, func(w int) {
			binTriChunk(f, verts, tris, s, binW, bands, w)
		})
	}
	if wk == 1 {
		// Serial fast path: calling par.For would heap-allocate its body
		// closure even for one worker; this branch keeps a 1-worker
		// re-render allocation-free.
		for b := 0; b < bands; b++ {
			rasterizeBand(f, verts, tris, s, binW, bands, b)
		}
	} else {
		par.For(bands, wk, func(b int) {
			rasterizeBand(f, verts, tris, s, binW, bands, b)
		})
	}
	putBins(s)
}

// binTriChunk bins worker w's contiguous triangle chunk into its private
// per-band lists.
func binTriChunk(f *fb.Frame, verts []Vertex, tris [][3]int32, s *binScratch, binW, bands, w int) {
	const bandHeight = DefaultBandHeight
	lo := w * len(tris) / binW
	hi := (w + 1) * len(tris) / binW
	row := s.bins[w*bands : (w+1)*bands]
	for i := lo; i < hi; i++ {
		t := &tris[i]
		a, b, c := &verts[t[0]], &verts[t[1]], &verts[t[2]]
		minY := min(a.Y, b.Y, c.Y)
		maxY := max(a.Y, b.Y, c.Y)
		if maxY < 0 || minY >= float64(f.H) {
			continue
		}
		b0 := clampInt(int(minY)/bandHeight, 0, bands-1)
		b1 := clampInt(int(maxY)/bandHeight, 0, bands-1)
		for b := b0; b <= b1; b++ {
			row[b] = append(row[b], int32(i))
		}
	}
}

// rasterizeBand draws every triangle binned to band b, draining the
// workers' lists in chunk order to preserve the serial rasterize order.
func rasterizeBand(f *fb.Frame, verts []Vertex, tris [][3]int32, s *binScratch, binW, bands, b int) {
	const bandHeight = DefaultBandHeight
	y0 := b * bandHeight
	y1 := min(y0+bandHeight, f.H)
	for w := 0; w < binW; w++ {
		for _, ti := range s.bins[w*bands+b] {
			t := &tris[ti]
			rasterizeTriangle(f, &verts[t[0]], &verts[t[1]], &verts[t[2]], y0, y1)
		}
	}
}

// rasterizeTriangle scan-converts triangle (a, b, c) restricted to
// scanlines [y0, y1).
//
// The weights are exact: each is edge's (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
// for its edge and the pixel centre, the same IEEE operations in the same
// order, with the two differences along the edge taken once per triangle
// and the product with the row's offset once per row. Stepping the edge
// functions by adding a per-pixel increment would be cheaper still, but
// it rounds differently and would move pixels.
func rasterizeTriangle(f *fb.Frame, a, b, c *Vertex, y0, y1 int) {
	// Signed doubled area; degenerate triangles are skipped. A negative
	// area means opposite winding — rasterize both windings (no culling),
	// since extraction algorithms do not guarantee orientation.
	area := edge(a.X, a.Y, b.X, b.Y, c.X, c.Y)
	//lint:ignore floateq exact degenerate-triangle guard before 1/area; an epsilon would cull thin slivers that still rasterize correctly (area only normalizes interpolation)
	if area == 0 {
		return
	}
	inv := 1 / area

	minX := clampInt(int(math.Floor(min(a.X, b.X, c.X))), 0, f.W-1)
	maxX := clampInt(int(math.Ceil(max(a.X, b.X, c.X))), 0, f.W-1)
	minY := clampInt(int(math.Floor(min(a.Y, b.Y, c.Y))), y0, y1-1)
	maxY := clampInt(int(math.Ceil(max(a.Y, b.Y, c.Y))), y0, y1-1)

	// Weight k belongs to the vertex opposite edge k: w0 to a across
	// b->c, w1 to b across c->a, w2 to c across a->b.
	ex0, ey0 := c.X-b.X, c.Y-b.Y
	ex1, ey1 := a.X-c.X, a.Y-c.Y
	ex2, ey2 := b.X-a.X, b.Y-a.Y
	for py := minY; py <= maxY; py++ {
		cy := float64(py) + 0.5
		r0 := ex0 * (cy - b.Y)
		r1 := ex1 * (cy - c.Y)
		r2 := ex2 * (cy - a.Y)
		row := py * f.W
		for px := minX; px <= maxX; px++ {
			cx := float64(px) + 0.5
			w0 := (r0 - ey0*(cx-b.X)) * inv
			w1 := (r1 - ey1*(cx-c.X)) * inv
			w2 := (r2 - ey2*(cx-a.X)) * inv
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := w0*a.Depth + w1*b.Depth + w2*c.Depth
			if depth <= 0 {
				continue
			}
			// The depth test fb.Frame.DepthSet makes, before the colour
			// is built: a hidden pixel costs no blend.
			i := row + px
			if depth < f.Depth[i] {
				f.Depth[i] = depth
				f.Color[i] = a.Color.Scale(w0).
					Add(b.Color.Scale(w1)).
					Add(c.Color.Scale(w2))
			}
		}
	}
}

// edge is the 2D cross product (b-a) x (c-a): positive when c is left of
// the directed edge a->b.
func edge(ax, ay, bx, by, cx, cy float64) float64 {
	return (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
}

// DrawSprites renders fixed-size square point sprites — the "VTK points"
// technique: every particle maps to a fixed-size, fixed-color block
// (usually 1-3 pixels on a side, §IV-C).
func DrawSprites(f *fb.Frame, sprites []Sprite, workers int) {
	if len(sprites) == 0 {
		return
	}
	const bandHeight = DefaultBandHeight
	bands := (f.H + bandHeight - 1) / bandHeight
	wk := workers
	if wk <= 0 {
		wk = par.DefaultWorkers()
	}
	if wk > bands {
		wk = bands
	}
	binW := wk
	if len(sprites) < parallelBinMin {
		binW = 1
	}
	s := getBins(binW * bands)
	if binW == 1 {
		binSpriteChunk(f, sprites, s, binW, bands, 0)
	} else {
		par.For(binW, binW, func(w int) {
			binSpriteChunk(f, sprites, s, binW, bands, w)
		})
	}
	if wk == 1 {
		for b := 0; b < bands; b++ {
			drawSpriteBand(f, sprites, s, binW, bands, b)
		}
	} else {
		par.For(bands, wk, func(b int) {
			drawSpriteBand(f, sprites, s, binW, bands, b)
		})
	}
	putBins(s)
}

// binSpriteChunk bins worker w's contiguous sprite chunk into its private
// per-band lists.
func binSpriteChunk(f *fb.Frame, sprites []Sprite, s *binScratch, binW, bands, w int) {
	const bandHeight = DefaultBandHeight
	lo := w * len(sprites) / binW
	hi := (w + 1) * len(sprites) / binW
	row := s.bins[w*bands : (w+1)*bands]
	for i := lo; i < hi; i++ {
		sp := &sprites[i]
		half := float64(max(sp.Size, 1)) / 2
		if sp.Y+half < 0 || sp.Y-half >= float64(f.H) {
			continue
		}
		b0 := clampInt(int(sp.Y-half)/bandHeight, 0, bands-1)
		b1 := clampInt(int(sp.Y+half)/bandHeight, 0, bands-1)
		for b := b0; b <= b1; b++ {
			row[b] = append(row[b], int32(i))
		}
	}
}

func drawSpriteBand(f *fb.Frame, sprites []Sprite, s *binScratch, binW, bands, b int) {
	const bandHeight = DefaultBandHeight
	y0 := b * bandHeight
	y1 := min(y0+bandHeight, f.H)
	for w := 0; w < binW; w++ {
		for _, si := range s.bins[w*bands+b] {
			sp := &sprites[si]
			size := max(sp.Size, 1)
			px0 := int(sp.X - float64(size)/2 + 0.5)
			py0 := int(sp.Y - float64(size)/2 + 0.5)
			for dy := 0; dy < size; dy++ {
				py := py0 + dy
				if py < y0 || py >= y1 {
					continue
				}
				for dx := 0; dx < size; dx++ {
					f.DepthSet(px0+dx, py, sp.Depth, sp.Color)
				}
			}
		}
	}
}

// DrawImpostors renders shaded sphere impostors: each point becomes a
// screen-space disk whose per-pixel normal reconstructs a sphere, shaded
// with a Lambertian term plus ambient — the paper's Gaussian splatter,
// which "manipulates the triangle normal at each pixel to model a
// sphere" (§IV-C). light is the direction toward the light in camera
// space (+Z toward the viewer).
func DrawImpostors(f *fb.Frame, imps []Impostor, light vec.V3, workers int) {
	if len(imps) == 0 {
		return
	}
	l := light.Norm()
	const bandHeight = DefaultBandHeight
	bands := (f.H + bandHeight - 1) / bandHeight
	wk := workers
	if wk <= 0 {
		wk = par.DefaultWorkers()
	}
	if wk > bands {
		wk = bands
	}
	binW := wk
	if len(imps) < parallelBinMin {
		binW = 1
	}
	s := getBins(binW * bands)
	if binW == 1 {
		binImpostorChunk(f, imps, s, binW, bands, 0)
	} else {
		par.For(binW, binW, func(w int) {
			binImpostorChunk(f, imps, s, binW, bands, w)
		})
	}
	if wk == 1 {
		for b := 0; b < bands; b++ {
			drawImpostorBand(f, imps, l, s, binW, bands, b)
		}
	} else {
		par.For(bands, wk, func(b int) {
			drawImpostorBand(f, imps, l, s, binW, bands, b)
		})
	}
	putBins(s)
}

// binImpostorChunk bins worker w's contiguous impostor chunk into its
// private per-band lists.
func binImpostorChunk(f *fb.Frame, imps []Impostor, s *binScratch, binW, bands, w int) {
	const bandHeight = DefaultBandHeight
	lo := w * len(imps) / binW
	hi := (w + 1) * len(imps) / binW
	row := s.bins[w*bands : (w+1)*bands]
	for i := lo; i < hi; i++ {
		im := &imps[i]
		r := math.Max(im.Radius, 0.5)
		if im.Y+r < 0 || im.Y-r >= float64(f.H) {
			continue
		}
		b0 := clampInt(int(im.Y-r)/bandHeight, 0, bands-1)
		b1 := clampInt(int(im.Y+r)/bandHeight, 0, bands-1)
		for b := b0; b <= b1; b++ {
			row[b] = append(row[b], int32(i))
		}
	}
}

func drawImpostorBand(f *fb.Frame, imps []Impostor, l vec.V3, s *binScratch, binW, bands, b int) {
	const bandHeight = DefaultBandHeight
	y0 := b * bandHeight
	y1 := min(y0+bandHeight, f.H)
	for w := 0; w < binW; w++ {
		for _, si := range s.bins[w*bands+b] {
			im := &imps[si]
			r := math.Max(im.Radius, 0.5)
			px0 := clampInt(int(im.X-r), 0, f.W-1)
			px1 := clampInt(int(im.X+r)+1, 0, f.W-1)
			py0 := clampInt(int(im.Y-r), y0, y1-1)
			py1 := clampInt(int(im.Y+r)+1, y0, y1-1)
			invR := 1 / r
			for py := py0; py <= py1; py++ {
				dy := (float64(py) + 0.5 - im.Y) * invR
				for px := px0; px <= px1; px++ {
					dx := (float64(px) + 0.5 - im.X) * invR
					d2 := dx*dx + dy*dy
					if d2 > 1 {
						continue
					}
					// Reconstruct the sphere normal at this pixel.
					nz := math.Sqrt(1 - d2)
					n := vec.V3{X: dx, Y: -dy, Z: nz}
					lambert := n.Dot(l)
					if lambert < 0 {
						lambert = 0
					}
					shade := 0.25 + 0.75*lambert
					// True sphere depth: front surface bulges toward the
					// viewer by nz * worldRadius.
					depth := im.Depth - nz*im.WorldRadius
					f.DepthSet(px, py, depth, im.Color.Scale(shade))
				}
			}
		}
	}
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
