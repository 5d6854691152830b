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
// rasterizers (e.g. Mesa's llvmpipe) use. One worker skips the bins and
// draws each primitive once, over the rows of all its bands.
package raster

import (
	"math"

	"github.com/ascr-ecx/eth/internal/fb"
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
// One worker draws each triangle once, in input order, over the rows of
// every band drawBinned would bin it to; more workers bin into b (see
// drawBinned). Either way each pixel gets the same writes in the same
// order, so the frame does not depend on the worker count.
func (b *Bins) DrawTriangles(f *fb.Frame, verts []Vertex, tris [][3]int32, workers int) {
	// rasterizeTriangle indexes the frame directly; a frame with no
	// columns has no pixel for its clamped bounds to land on.
	if len(tris) == 0 || f.W == 0 {
		return
	}
	wk := drawWorkers(workers, f.H)
	if wk == 1 {
		drawSerial(f, verts, tris, nil)
		return
	}
	drawBinned(b, f.H, len(tris), wk,
		func(i int) (y0, y1 int, ok bool) {
			t := &tris[i]
			return triRows(f.H, &verts[t[0]], &verts[t[1]], &verts[t[2]])
		},
		func(i, y0, y1 int) {
			t := &tris[i]
			rasterizeTriangle(f, &verts[t[0]], &verts[t[1]], &verts[t[2]], y0, y1, nil, t)
		})
}

// DrawTrianglesLazy is DrawTriangles on one worker for vertices whose
// colours are set on demand: just before triangle t blends its first
// pixel, it calls shade(t), which must set the colours of t's three
// vertices. A triangle none of whose pixels passes the depth test never
// asks for them. Pixels read a vertex's colour only after that call, so
// the frame is the one DrawTriangles draws with every colour set first.
// shade may be called for a vertex again, from another triangle.
func DrawTrianglesLazy(f *fb.Frame, verts []Vertex, tris [][3]int32, shade func(t [3]int32)) {
	if len(tris) == 0 || f.W == 0 {
		return
	}
	drawSerial(f, verts, tris, shade)
}

// drawSerial draws each triangle once, in input order, over the rows of
// its bands, calling shade, when it is not nil, as DrawTrianglesLazy
// says.
func drawSerial(f *fb.Frame, verts []Vertex, tris [][3]int32, shade func(t [3]int32)) {
	for i := range tris {
		t := &tris[i]
		a, b, c := &verts[t[0]], &verts[t[1]], &verts[t[2]]
		if y0, y1, ok := triRows(f.H, a, b, c); ok {
			rasterizeTriangle(f, a, b, c, y0, y1, shade, t)
		}
	}
}

// triRows is bandRows for a triangle.
func triRows(h int, a, b, c *Vertex) (y0, y1 int, ok bool) {
	return bandRows(h, min(a.Y, b.Y, c.Y), max(a.Y, b.Y, c.Y))
}

// centreSlack is how far outside a triangle's vertex range a pixel centre
// may lie and still be tested once the triangle's box is proven; see
// rasterizeTriangle. It is far above the rounding of the box's own bounds
// (at most 2⁻²⁸ within provenMax) and far below a pixel.
const centreSlack = 0x1p-16

// provenMax bounds the vertex coordinates a pixel-centre box is proven
// for: within it, subtracting ½ ± centreSlack from a coordinate rounds by
// at most 2⁻²⁸, far below half the slack, which the proof assumes. Larger
// and non-finite coordinates keep the loose box.
const provenMax = 1 << 24

// rasterizeTriangle scan-converts triangle (a, b, c), the vertices t
// indexes, restricted to scanlines [y0, y1). When shade is not nil it is
// called with t before the first pixel blends the vertices' colours.
//
// The weights are exact: each is edge's (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
// for its edge and the pixel centre, the same IEEE operations in the same
// order, with the two differences along the edge taken once per triangle
// and the product with the row's offset once per row. Stepping the edge
// functions by adding a per-pixel increment would be cheaper still, but
// it rounds differently and would move pixels.
//
// The pixels tested are the centres within centreSlack of the vertices'
// range, when centresProven shows every centre beyond it fails the edge
// test as computed; otherwise, as before, every pixel the range touches.
// Either way the same pixels pass, so a triangle that covers no centre
// returns without a division and without a pixel loop.
func rasterizeTriangle(f *fb.Frame, a, b, c *Vertex, y0, y1 int, shade func(t [3]int32), t *[3]int32) {
	// Signed doubled area; degenerate triangles are skipped. A negative
	// area means opposite winding — rasterize both windings (no culling),
	// since extraction algorithms do not guarantee orientation.
	area := edge(a.X, a.Y, b.X, b.Y, c.X, c.Y)
	//lint:ignore floateq exact degenerate-triangle guard before 1/area; an epsilon would cull thin slivers that still rasterize correctly (area only normalizes interpolation)
	if area == 0 {
		return
	}
	lx, hx := min(a.X, b.X, c.X), max(a.X, b.X, c.X)
	ly, hy := min(a.Y, b.Y, c.Y), max(a.Y, b.Y, c.Y)
	minX, maxX := int(math.Floor(lx)), int(math.Ceil(hx))
	minY, maxY := int(math.Floor(ly)), int(math.Ceil(hy))
	// The loose box must reach the frame and the band: where it does not,
	// clamping moves it onto pixels outside it, which the proof does not
	// cover, and the loose box is kept.
	if minX < f.W && maxX >= 0 && minY < y1 && maxY >= y0 && centresProven(area, lx, hx, ly, hy) {
		minX = max(int(math.Ceil(lx-(0.5+centreSlack))), 0)
		maxX = min(int(math.Floor(hx-(0.5-centreSlack))), f.W-1)
		minY = max(int(math.Ceil(ly-(0.5+centreSlack))), y0)
		maxY = min(int(math.Floor(hy-(0.5-centreSlack))), y1-1)
		if minX > maxX || minY > maxY {
			return
		}
	} else {
		minX, maxX = clampInt(minX, 0, f.W-1), clampInt(maxX, 0, f.W-1)
		minY, maxY = clampInt(minY, y0, y1-1), clampInt(maxY, y0, y1-1)
	}
	inv := 1 / area

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
				if shade != nil {
					shade(*t)
					shade = nil
				}
				f.Depth[i] = depth
				f.Color[i] = a.Color.Scale(w0).
					Add(b.Color.Scale(w1)).
					Add(c.Color.Scale(w2))
			}
		}
	}
}

// centresProven reports whether every pixel centre of the loose box that
// lies more than centreSlack/2 outside the vertex range [lx, hx]×[ly, hy]
// gets a negative weight from rasterizeTriangle's arithmetic, for a
// triangle whose doubled area computes to area.
//
// Such a centre is an exact affine combination of the corners whose
// weights sum to 1; its offset δ outside the range in x is made up by the
// negative weights alone, so one of them is below −δ/(2W), W = hx−lx (in
// y, likewise with H). Its edge numerator is that weight times the exact
// area A. Each numerator and the area are two products of a difference
// along an edge (at most W or H) and one to the centre (at most W+1.5 or
// H+1.5 inside the loose box), subtracted: four roundings, under
// 4u(2WH + 1.5(W+H)) with u = 2⁻⁵³; err doubles that, plus an absolute
// term for underflow. When slack·(|area|−err) > 4·max(W, H)·err, A has
// area's sign and each such numerator exceeds err in size, so its
// computed sign is exact and the weight is negative. Slivers fail the
// test and keep the loose box.
func centresProven(area, lx, hx, ly, hy float64) bool {
	if !(lx >= -provenMax && hx <= provenMax && ly >= -provenMax && hy <= provenMax) {
		return false
	}
	w, h := hx-lx, hy-ly
	err := 0x1p-50*(2*w*h+1.5*(w+h)) + 0x1p-1000
	return centreSlack*(math.Abs(area)-err) > 4*max(w, h)*err
}

// edge is the 2D cross product (b-a) x (c-a): positive when c is left of
// the directed edge a->b.
func edge(ax, ay, bx, by, cx, cy float64) float64 {
	return (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
}

// DrawSprites renders fixed-size square point sprites — the "VTK points"
// technique: every particle maps to a fixed-size, fixed-color block
// (usually 1-3 pixels on a side, §IV-C). Like DrawTriangles, one worker
// draws each sprite once in input order, and more workers bin.
func DrawSprites(f *fb.Frame, sprites []Sprite, workers int) {
	drawSprites(nil, f, sprites, workers)
}

// DrawSprites is the package's DrawSprites binning into b.
func (b *Bins) DrawSprites(f *fb.Frame, sprites []Sprite, workers int) {
	drawSprites(b, f, sprites, workers)
}

func drawSprites(b *Bins, f *fb.Frame, sprites []Sprite, workers int) {
	if len(sprites) == 0 {
		return
	}
	wk := drawWorkers(workers, f.H)
	if wk == 1 {
		for i := range sprites {
			sp := &sprites[i]
			if y0, y1, ok := spriteRows(f.H, sp); ok {
				drawSprite(f, sp, y0, y1)
			}
		}
		return
	}
	drawBinned(b, f.H, len(sprites), wk,
		func(i int) (y0, y1 int, ok bool) { return spriteRows(f.H, &sprites[i]) },
		func(i, y0, y1 int) { drawSprite(f, &sprites[i], y0, y1) })
}

// spriteRows is bandRows for a sprite.
func spriteRows(h int, sp *Sprite) (y0, y1 int, ok bool) {
	half := float64(max(sp.Size, 1)) / 2
	return bandRows(h, sp.Y-half, sp.Y+half)
}

// drawSprite draws sp's rows within [y0, y1): the square of its size
// whose pixel centres are nearest its own centre.
func drawSprite(f *fb.Frame, sp *Sprite, y0, y1 int) {
	size := max(sp.Size, 1)
	px0 := int(math.Floor(sp.X - float64(size)/2 + 0.5))
	py0 := int(math.Floor(sp.Y - float64(size)/2 + 0.5))
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

// DrawImpostors renders shaded sphere impostors: each point becomes a
// screen-space disk whose per-pixel normal reconstructs a sphere, shaded
// with a Lambertian term plus ambient — the paper's Gaussian splatter,
// which "manipulates the triangle normal at each pixel to model a
// sphere" (§IV-C). light is the direction toward the light in camera
// space (+Z toward the viewer). Like DrawTriangles, one worker draws each
// impostor once in input order, and more workers bin.
func (b *Bins) DrawImpostors(f *fb.Frame, imps []Impostor, light vec.V3, workers int) {
	if len(imps) == 0 {
		return
	}
	l := light.Norm()
	wk := drawWorkers(workers, f.H)
	if wk == 1 {
		for i := range imps {
			im := &imps[i]
			if y0, y1, ok := impostorRows(f.H, im); ok {
				drawImpostor(f, im, l, y0, y1)
			}
		}
		return
	}
	drawBinned(b, f.H, len(imps), wk,
		func(i int) (y0, y1 int, ok bool) { return impostorRows(f.H, &imps[i]) },
		func(i, y0, y1 int) { drawImpostor(f, &imps[i], l, y0, y1) })
}

// impostorRows is bandRows for an impostor.
func impostorRows(h int, im *Impostor) (y0, y1 int, ok bool) {
	r := max(im.Radius, 0.5)
	return bandRows(h, im.Y-r, im.Y+r)
}

// drawImpostor draws im's rows within [y0, y1).
func drawImpostor(f *fb.Frame, im *Impostor, l vec.V3, y0, y1 int) {
	r := max(im.Radius, 0.5)
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

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
