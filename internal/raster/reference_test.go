package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
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
	s := getBins(binW * bands)
	par.For(binW, binW, func(w int) {
		refBinTriChunk(f, tris, s, binW, bands, w)
	})
	par.For(bands, wk, func(b int) {
		refRasterizeBand(f, tris, s, binW, bands, b)
	})
	putBins(s)
}

func refBinTriChunk(f *fb.Frame, tris []refTriangle, s *binScratch, binW, bands, w int) {
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

func refRasterizeBand(f *fb.Frame, tris []refTriangle, s *binScratch, binW, bands, b int) {
	const bandHeight = DefaultBandHeight
	y0 := b * bandHeight
	y1 := minInt(y0+bandHeight, f.H)
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
					DrawTriangles(got, verts, tris, workers)
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
	DrawTriangles(&fb.Frame{H: 32}, verts, tris, 1)
}
