package raster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// The reference is the triangle rasterizer this package had before it
// took shared vertices, kept as it was: a triangle soup of three vertices
// per triangle, binned by math.Min/math.Max, every edge function built in
// full at every pixel, the colour blended before the depth test. The
// differential test below holds DrawTriangles to it bit for bit.

type refTriangle struct{ V [3]Vertex }

func refDrawTriangles(f *fb.Frame, tris []refTriangle, workers int) {
	if len(tris) == 0 {
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
	s := new(Bins)
	s.reset(binW * bands)
	par.For(binW, binW, func(w int) {
		refBinTriChunk(f, tris, s, binW, bands, w)
	})
	par.For(bands, wk, func(b int) {
		refRasterizeBand(f, tris, s, binW, bands, b)
	})
}

func refBinTriChunk(f *fb.Frame, tris []refTriangle, s *Bins, binW, bands, w int) {
	const bandHeight = DefaultBandHeight
	lo := w * len(tris) / binW
	hi := (w + 1) * len(tris) / binW
	row := s.bins[w*bands : (w+1)*bands]
	for i := lo; i < hi; i++ {
		t := &tris[i]
		minY := math.Min(t.V[0].Y, math.Min(t.V[1].Y, t.V[2].Y))
		maxY := math.Max(t.V[0].Y, math.Max(t.V[1].Y, t.V[2].Y))
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

func refRasterizeBand(f *fb.Frame, tris []refTriangle, s *Bins, binW, bands, b int) {
	const bandHeight = DefaultBandHeight
	y0 := b * bandHeight
	y1 := min(y0+bandHeight, f.H)
	for w := 0; w < binW; w++ {
		for _, ti := range s.bins[w*bands+b] {
			refRasterizeTriangle(f, &tris[ti], y0, y1)
		}
	}
}

func refRasterizeTriangle(f *fb.Frame, t *refTriangle, y0, y1 int) {
	v := &t.V
	area := edge(v[0].X, v[0].Y, v[1].X, v[1].Y, v[2].X, v[2].Y)
	if area == 0 {
		return
	}
	inv := 1 / area

	min3 := func(a, b, c float64) float64 { return math.Min(a, math.Min(b, c)) }
	max3 := func(a, b, c float64) float64 { return math.Max(a, math.Max(b, c)) }
	minX := clampInt(int(math.Floor(min3(v[0].X, v[1].X, v[2].X))), 0, f.W-1)
	maxX := clampInt(int(math.Ceil(max3(v[0].X, v[1].X, v[2].X))), 0, f.W-1)
	minY := clampInt(int(math.Floor(min3(v[0].Y, v[1].Y, v[2].Y))), y0, y1-1)
	maxY := clampInt(int(math.Ceil(max3(v[0].Y, v[1].Y, v[2].Y))), y0, y1-1)

	for py := minY; py <= maxY; py++ {
		cy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			cx := float64(px) + 0.5
			w0 := edge(v[1].X, v[1].Y, v[2].X, v[2].Y, cx, cy) * inv
			w1 := edge(v[2].X, v[2].Y, v[0].X, v[0].Y, cx, cy) * inv
			w2 := edge(v[0].X, v[0].Y, v[1].X, v[1].Y, cx, cy) * inv
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := w0*v[0].Depth + w1*v[1].Depth + w2*v[2].Depth
			if depth <= 0 {
				continue
			}
			color := v[0].Color.Scale(w0).
				Add(v[1].Color.Scale(w1)).
				Add(v[2].Color.Scale(w2))
			f.DepthSet(px, py, depth, color)
		}
	}
}

// refBoxDrawTriangles draws as DrawTriangles did before one worker drew
// each triangle once and rasterizeTriangle tested only the pixel centres
// a proven triangle can cover: band by band, each triangle binned to the
// bands its vertex range reaches and drawn by refBoxRasterizeTriangle,
// below, over every pixel that range touches. The order within a band is
// the input order, as it was at every worker count.
func refBoxDrawTriangles(f *fb.Frame, verts []Vertex, tris [][3]int32) {
	const bandHeight = DefaultBandHeight
	bands := (f.H + bandHeight - 1) / bandHeight
	if len(tris) == 0 || f.W == 0 {
		return
	}
	for band := 0; band < bands; band++ {
		y0 := band * bandHeight
		y1 := min(y0+bandHeight, f.H)
		for i := range tris {
			t := &tris[i]
			a, b, c := &verts[t[0]], &verts[t[1]], &verts[t[2]]
			minY := min(a.Y, b.Y, c.Y)
			maxY := max(a.Y, b.Y, c.Y)
			if maxY < 0 || minY >= float64(f.H) {
				continue
			}
			b0 := clampInt(int(minY)/bandHeight, 0, bands-1)
			b1 := clampInt(int(maxY)/bandHeight, 0, bands-1)
			if b0 <= band && band <= b1 {
				refBoxRasterizeTriangle(f, a, b, c, y0, y1)
			}
		}
	}
}

// refBoxRasterizeTriangle is rasterizeTriangle as it was, verbatim but
// for the lint directive on its area guard (test files are not linted).
func refBoxRasterizeTriangle(f *fb.Frame, a, b, c *Vertex, y0, y1 int) {
	// Signed doubled area; degenerate triangles are skipped. A negative
	// area means opposite winding — rasterize both windings (no culling),
	// since extraction algorithms do not guarantee orientation.
	area := edge(a.X, a.Y, b.X, b.Y, c.X, c.Y)
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

// RefBoxDrawTriangles lends refBoxDrawTriangles to the raster_test
// package, whose blast meshes need geom, which imports raster.
var RefBoxDrawTriangles = refBoxDrawTriangles

// refW, refH size the differential test's frame: ten bands, the last one
// partial.
const refW, refH = 200, 150

// refTriangles returns n random indexed triangles over a shared vertex
// pool, mixing every kind of triangle the rasterizer has a branch for:
// ordinary ones, sub-pixel ones that may cover no pixel centre, slivers
// and degenerate ones (zero area, an exact test), ones wholly or partly
// off-screen, ones at or behind the camera (depth <= 0 somewhere),
// full-frame ones, and a few with non-finite corners. Depths and colours
// come from few values, so overlapping triangles tie and the draw order
// is visible in the frame.
func refTriangles(seed int64, n int) ([]Vertex, [][3]int32) {
	rng := rand.New(rand.NewSource(seed))
	var verts []Vertex
	add := func(x, y, depth float64) int32 {
		verts = append(verts, Vertex{X: x, Y: y, Depth: depth, Color: binsColor(rng)})
		return int32(len(verts) - 1)
	}
	depth := func() float64 { return binsDepth(rng) }
	// Ordinary triangles walk like a mesh's, sharing a corner with one of
	// the last few ordinary triangles now and then.
	var x, y float64
	var recent []int32
	corner := func() int32 {
		if len(recent) > 0 && rng.Intn(4) == 0 {
			return recent[rng.Intn(len(recent))]
		}
		v := add(x+(rng.Float64()-0.5)*30, y+(rng.Float64()-0.5)*30, depth())
		if recent = append(recent, v); len(recent) > 6 {
			recent = recent[1:]
		}
		return v
	}
	fullFrame := 0
	tris := make([][3]int32, n)
	for i := range tris {
		if i%16 == 0 {
			x, y = rng.Float64()*(refW+60)-30, rng.Float64()*(refH+60)-30
			recent = recent[:0]
		}
		x, y = x+rng.Float64()*10-5, y+rng.Float64()*10-5
		t := &tris[i]
		switch kind := rng.Intn(100); {
		case kind < 55: // ordinary
			for c := range t {
				t[c] = corner()
			}
		case kind < 70: // sub-pixel
			for c := range t {
				t[c] = add(x+rng.Float64()*0.9, y+rng.Float64()*0.9, depth())
			}
		case kind < 77: // degenerate: repeated corner or collinear corners
			a := add(x, y, depth())
			dx, dy := rng.Float64()*20-10, rng.Float64()*20-10
			b := add(x+dx, y+dy, depth())
			if rng.Intn(2) == 0 {
				*t = [3]int32{a, b, a}
			} else {
				*t = [3]int32{a, b, add(x+2*dx, y+2*dy, depth())}
			}
		case kind < 81: // sliver
			a := add(x, y, depth())
			*t = [3]int32{a, add(x+40, y+1e-9, depth()), add(x+80, y+rng.Float64()*1e-3, depth())}
		case kind < 89: // off-screen, or straddling an edge of the frame
			ox := []float64{-60, refW + 60, x}[rng.Intn(3)]
			oy := []float64{-60, refH + 60, y}[rng.Intn(3)]
			for c := range t {
				t[c] = add(ox+(rng.Float64()-0.5)*100, oy+(rng.Float64()-0.5)*100, depth())
			}
		case kind < 96: // touching or behind the camera at some corner
			for c := range t {
				t[c] = add(x+(rng.Float64()-0.5)*40, y+(rng.Float64()-0.5)*40, float64(rng.Intn(5)-3))
			}
		case kind < 98: // non-finite corner
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			for c := range t {
				t[c] = add(x+(rng.Float64()-0.5)*20, y+(rng.Float64()-0.5)*20, depth())
			}
			v := &verts[t[rng.Intn(3)]]
			switch rng.Intn(3) {
			case 0:
				v.X = bad
			case 1:
				v.Y = bad
			default:
				v.Depth = bad
			}
		case kind < 99: // signed zeros on a corner at the frame's origin
			z := math.Copysign(0, -1)
			*t = [3]int32{add(z, z, depth()), add(0, 30, depth()), add(30, z, depth())}
		default: // full-frame, a few per set: each costs every pixel
			if fullFrame++; fullFrame > 4 {
				*t = [3]int32{add(x, y, depth()), add(x+3, y, depth()), add(x, y+3, depth())}
				break
			}
			d := depth()
			*t = [3]int32{add(-refW, -refH, d), add(3*refW, -refH, d+0.5), add(-refW, 3*refH, d)}
		}
	}
	return verts, tris
}

// expand lays indexed triangles out as the reference's soup.
func expand(verts []Vertex, tris [][3]int32) []refTriangle {
	out := make([]refTriangle, len(tris))
	for i, t := range tris {
		out[i] = refTriangle{V: [3]Vertex{verts[t[0]], verts[t[1]], verts[t[2]]}}
	}
	return out
}

// TestTrianglesMatchReference holds DrawTriangles to the soup rasterizer
// it replaced: same Color and Depth bits in every pixel, below and above
// parallelBinMin, at one, two and four workers, drawn twice into the same
// frame so the depth test also runs against pixels already set.
func TestTrianglesMatchReference(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		count int
	}{{1, 3000}, {2, parallelBinMin + 1}, {3, 2*parallelBinMin + 17}} {
		verts, tris := refTriangles(c.seed, c.count)
		soup := expand(verts, tris)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed%d-%d-triangles-%d-workers", c.seed, c.count, workers), func(t *testing.T) {
				want, got := fb.New(refW, refH), fb.New(refW, refH)
				for pass := 0; pass < 2; pass++ {
					refDrawTriangles(want, soup, workers)
					new(Bins).DrawTriangles(got, verts, tris, workers)
				}
				if covered := want.CoveredPixels(); covered < refW*refH/2 {
					t.Fatalf("the reference covered %d of %d pixels: the test draws too little to compare", covered, refW*refH)
				}
				requireFramesEqual(t, "indexed vs reference", got, want)
			})
		}
	}
	// A frame with no columns has no pixel to index: nothing is drawn.
	verts, tris := refTriangles(5, 50)
	new(Bins).DrawTriangles(&fb.Frame{H: 32}, verts, tris, 1)
}

// sliverTriangles returns n triangles built to sit where a pixel-centre
// box could go wrong: slivers along rows, columns and diagonals of pixel
// centres whose third corner is off the line by anything from nothing or
// a few ulps to a pixel (a few ulps is where the loose box fills centres
// beyond the corners), the thicknesses where centresProven changes its answer and
// the floats either side of them, triangles with corners at ±2²⁰ and
// beyond provenMax, and corners with NaN or ±Inf coordinates. Depths and
// colours come from few values, as in refTriangles.
func sliverTriangles(seed int64, n int) ([]Vertex, [][3]int32) {
	rng := rand.New(rand.NewSource(seed))
	var verts []Vertex
	var tris [][3]int32
	add := func(p [2]float64) int32 {
		verts = append(verts, Vertex{X: p[0], Y: p[1], Depth: binsDepth(rng), Color: binsColor(rng)})
		return int32(len(verts) - 1)
	}
	tri := func(a, b, c [2]float64) {
		t := [3]int32{add(a), add(b), add(c)}
		rng.Shuffle(3, func(i, j int) { t[i], t[j] = t[j], t[i] })
		tris = append(tris, t)
	}
	// A line through a pixel centre along a row, a column or a diagonal
	// that meets further centres, with two corners on it (as nearly as
	// floats allow) and a third off it by thickness t.
	dirs := [][2]float64{{1, 0}, {0, 1}, {1, 1}, {1, -1}, {2, 1}, {1, 3}, {3, -2}}
	sliver := func() (a, b [2]float64, c func(t float64) [2]float64) {
		d := dirs[rng.Intn(len(dirs))]
		cx, cy := float64(rng.Intn(refW+8)-4)+0.5, float64(rng.Intn(refH+8)-4)+0.5
		at := func(s float64) [2]float64 { return [2]float64{cx + s*d[0], cy + s*d[1]} }
		s0 := rng.Float64()*6 - 3
		s1 := s0 + 0.2 + rng.Float64()*8
		m := at(s0 + rng.Float64()*(s1-s0))
		return at(s0), at(s1), func(t float64) [2]float64 { return [2]float64{m[0] - t*d[1], m[1] + t*d[0]} }
	}
	thick := []float64{0, 5e-324, 1e-300, 1e-18, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-9, 1e-7, 1e-4, 0.01, 0.3, 1}
	huge := []float64{-1 << 20, 1 << 20, -(1 << 20) - 0.5, 1<<20 + 0.5, -2 * provenMax, 2 * provenMax}
	near := func(extent int) float64 { return rng.Float64()*float64(extent+20) - 10 }
	for len(tris) < n {
		switch kind := rng.Intn(10); {
		case kind < 3: // a sliver of a listed thickness, either side
			a, b, c := sliver()
			t := thick[rng.Intn(len(thick))]
			if rng.Intn(2) == 0 {
				t = -t
			}
			tri(a, b, c(t))
		case kind < 5: // a sliver a few ulps thick: where rounding decides
			a, b, c := sliver()
			p := c(0)
			for k := rng.Intn(4); k >= 0; k-- {
				i := rng.Intn(2)
				p[i] = math.Nextafter(p[i], math.Inf(2*rng.Intn(2)-1))
			}
			tri(a, b, p)
		case kind < 7: // a sliver at centresProven's threshold, or ulps from it
			a, b, c := sliver()
			proven := func(t float64) bool {
				p := c(t)
				area := edge(a[0], a[1], b[0], b[1], p[0], p[1])
				return area != 0 && centresProven(area, min(a[0], b[0], p[0]), max(a[0], b[0], p[0]), min(a[1], b[1], p[1]), max(a[1], b[1], p[1]))
			}
			lo, hi := 0.0, 1.0
			for i := 0; i < 200 && lo < hi; i++ {
				mid := lo + (hi-lo)/2
				if mid == lo || mid == hi {
					break
				}
				if proven(mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
			p := c(hi)
			steps, toward := rng.Intn(5)-2, math.Inf(1)
			if steps < 0 {
				steps, toward = -steps, math.Inf(-1)
			}
			for ; steps > 0; steps-- {
				p[1] = math.Nextafter(p[1], toward)
			}
			tri(a, b, p)
		case kind < 8: // corners at ±2²⁰ or beyond provenMax
			pick := func(extent int) float64 {
				if rng.Intn(2) == 0 {
					return huge[rng.Intn(len(huge))]
				}
				return near(extent)
			}
			a := [2]float64{pick(refW), pick(refH)}
			b := [2]float64{pick(refW), pick(refH)}
			c := [2]float64{pick(refW), pick(refH)}
			if rng.Intn(3) == 0 { // a long sliver
				c = [2]float64{a[0] + (b[0]-a[0])/3, a[1] + (b[1]-a[1])/3 + thick[rng.Intn(len(thick))]}
			}
			tri(a, b, c)
		default: // NaN or ±Inf in a coordinate or a depth
			tri([2]float64{near(refW), near(refH)}, [2]float64{near(refW), near(refH)}, [2]float64{near(refW), near(refH)})
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			v := &verts[tris[len(tris)-1][rng.Intn(3)]]
			switch rng.Intn(3) {
			case 0:
				v.X = bad
			case 1:
				v.Y = bad
			default:
				v.Depth = bad
			}
		}
	}
	return verts, tris
}

// TestTrianglesMatchBoxReference holds DrawTriangles to the binned,
// loose-box rasterizer it replaced, bit for bit, at one, two and four
// workers, below and above parallelBinMin: on refTriangles' mix, on
// slivers that put pixel centres at the edge of the proof, and drawn
// twice into one frame so the depth test meets pixels already set.
func TestTrianglesMatchBoxReference(t *testing.T) {
	cases := []struct {
		name  string
		verts []Vertex
		tris  [][3]int32
	}{{name: "mix"}, {name: "mix-binned"}, {name: "slivers"}}
	cases[0].verts, cases[0].tris = refTriangles(7, 3000)
	cases[1].verts, cases[1].tris = refTriangles(8, parallelBinMin+5)
	cases[2].verts, cases[2].tris = sliverTriangles(9, 6000)
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s-%d-workers", c.name, workers), func(t *testing.T) {
				want, got := fb.New(refW, refH), fb.New(refW, refH)
				for pass := 0; pass < 2; pass++ {
					refBoxDrawTriangles(want, c.verts, c.tris)
					new(Bins).DrawTriangles(got, c.verts, c.tris, workers)
				}
				requireFramesEqual(t, "pixel-centre box vs loose box", got, want)
			})
		}
	}
	// The slivers must reach both sides of the proof, or they test one
	// box only.
	proven, loose := 0, 0
	verts := cases[2].verts
	for _, tr := range cases[2].tris {
		a, b, c := &verts[tr[0]], &verts[tr[1]], &verts[tr[2]]
		area := edge(a.X, a.Y, b.X, b.Y, c.X, c.Y)
		if centresProven(area, min(a.X, b.X, c.X), max(a.X, b.X, c.X), min(a.Y, b.Y, c.Y), max(a.Y, b.Y, c.Y)) {
			proven++
		} else if area != 0 {
			loose++
		}
	}
	if proven < 1000 || loose < 1000 {
		t.Errorf("%d slivers proven and %d kept on the loose box, want 1000 of each", proven, loose)
	}
}

// fuzzTriangles decodes b into triangles for a fuzzW×fuzzH frame, three
// vertices each. A vertex starts with a mode byte: 0 reads x and y as
// int16 in 1/512ths of a pixel, 1 as raw float64 bits (NaN, ±Inf, huge
// and subnormal values among them), 2 as a pixel centre nudged by a
// signed multiple of 2⁻ᵏ per axis, and 3 as the previous vertex nudged
// so, which makes slivers. The mode byte's high bits pick one of four
// depths and colours, so triangles tie.
func fuzzTriangles(b []byte) ([]Vertex, [][3]int32) {
	next := func(n int) []byte {
		if len(b) < n {
			b = append(b, make([]byte, n-len(b))...)
		}
		out := b[:n]
		b = b[n:]
		return out
	}
	nudge := func() float64 {
		p := next(2)
		return float64(int8(p[0])) * math.Ldexp(1, -int(p[1]%64))
	}
	var verts []Vertex
	var tris [][3]int32
	for len(b) > 0 && len(tris) < 64 {
		for c := 0; c < 3; c++ {
			mode := next(1)[0]
			var x, y float64
			switch mode % 4 {
			case 0:
				p := next(4)
				x = float64(int16(binary.LittleEndian.Uint16(p))) / 512
				y = float64(int16(binary.LittleEndian.Uint16(p[2:]))) / 512
			case 1:
				p := next(16)
				x = math.Float64frombits(binary.LittleEndian.Uint64(p))
				y = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
			case 2:
				p := next(2)
				x = float64(int(p[0])%(fuzzW+4)-2) + 0.5 + nudge()
				y = float64(int(p[1])%(fuzzH+4)-2) + 0.5 + nudge()
			default:
				if len(verts) > 0 {
					x, y = verts[len(verts)-1].X, verts[len(verts)-1].Y
				}
				x += nudge()
				y += nudge()
			}
			k := float64((mode >> 2) % 4)
			verts = append(verts, Vertex{X: x, Y: y, Depth: 1 + k, Color: vec.New(k/3, 1-k/3, 0.5)})
		}
		n := int32(len(verts))
		tris = append(tris, [3]int32{n - 3, n - 2, n - 1})
	}
	return verts, tris
}

// fuzzW, fuzzH size the fuzz target's frame: three bands, the last one
// partial.
const fuzzW, fuzzH = 40, 2*DefaultBandHeight + 5

// FuzzTrianglesMatchReference holds DrawTriangles at one and two workers
// to the loose-box reference, bit for bit, on any triangles fuzzTriangles
// decodes.
func FuzzTrianglesMatchReference(f *testing.F) {
	// Seeds: a sliver along a pixel row a few ulps thick, one along a
	// diagonal of centres, corners at ±2²⁰ and a NaN corner.
	f.Add([]byte{2, 5, 7, 0, 0, 0, 0, 2, 30, 7, 0, 0, 0, 0, 3, 10, 52, 0, 0})
	f.Add([]byte{2, 3, 3, 1, 40, 1, 40, 2, 20, 20, 255, 50, 1, 50, 7, 1, 52, 0, 0})
	f.Add(append(append([]byte{1}, make([]byte, 6)...), 0x30, 0xc1, 0, 0, 0, 0, 0, 0, 0x30, 0x41,
		2, 9, 9, 0, 0, 0, 0, 2, 12, 30, 0, 0, 0, 0))
	f.Add(append(append([]byte{1}, make([]byte, 6)...), 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0x20, 0x40,
		0, 0, 8, 0, 8, 0, 0, 0, 20, 0, 20))
	f.Fuzz(func(t *testing.T, b []byte) {
		verts, tris := fuzzTriangles(b)
		want := fb.New(fuzzW, fuzzH)
		refBoxDrawTriangles(want, verts, tris)
		for _, workers := range []int{1, 2} {
			got := fb.New(fuzzW, fuzzH)
			new(Bins).DrawTriangles(got, verts, tris, workers)
			requireFramesEqual(t, fmt.Sprintf("%d workers", workers), got, want)
		}
	})
}
