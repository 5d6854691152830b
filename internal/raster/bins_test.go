package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

// binsW, binsH size the frame the binning tests draw into: nine bands, so
// eight workers each get a band of their own.
const binsW, binsH = 160, 9 * DefaultBandHeight

// binsCount is twice parallelBinMin: every worker count above one bins in
// parallel, each worker a chunk of thousands of primitives.
const binsCount = 2 * parallelBinMin

// binsColor and binsDepth draw from few values so primitives overlap at
// equal depth, where only the draw order decides which one a pixel keeps.
func binsColor(rng *rand.Rand) vec.V3 {
	return vec.New(float64(rng.Intn(4))/3, float64(rng.Intn(4))/3, float64(rng.Intn(4))/3)
}

func binsDepth(rng *rand.Rand) float64 { return 1 + float64(rng.Intn(8)) }

// binsTriangles returns binsCount triangles on a shared vertex pool, as
// DrawMesh hands them over: a corner is either a new vertex or one of the
// last few made, so most vertices are used by several triangles.
func binsTriangles(seed int64) ([]Vertex, [][3]int32) {
	rng := rand.New(rand.NewSource(seed))
	verts := make([]Vertex, 0, binsCount)
	tris := make([][3]int32, binsCount)
	var x, y float64
	for i := range tris {
		// The centre walks, now and then jumping anywhere near the frame,
		// so a corner shared with the last few triangles is near too:
		// most triangles span one or two bands, some none.
		if i%16 == 0 {
			x, y = rng.Float64()*(binsW+40)-20, rng.Float64()*(binsH+40)-20
		}
		x, y = x+rng.Float64()*8-4, y+rng.Float64()*8-4
		for c := range tris[i] {
			if len(verts) < 3 || rng.Intn(3) == 0 {
				verts = append(verts, Vertex{
					X: x + rng.Float64()*24 - 12, Y: y + rng.Float64()*24 - 12,
					Depth: binsDepth(rng), Color: binsColor(rng),
				})
				tris[i][c] = int32(len(verts) - 1)
			} else {
				tris[i][c] = int32(len(verts) - 1 - rng.Intn(min(len(verts), 8)))
			}
		}
	}
	return verts, tris
}

func binsSprites(seed int64) []Sprite {
	rng := rand.New(rand.NewSource(seed))
	sprites := make([]Sprite, binsCount)
	for i := range sprites {
		sprites[i] = Sprite{
			X: rng.Float64()*(binsW+8) - 4, Y: rng.Float64()*(binsH+8) - 4,
			Depth: binsDepth(rng), Size: rng.Intn(5), Color: binsColor(rng),
		}
	}
	return sprites
}

func binsImpostors(seed int64) []Impostor {
	rng := rand.New(rand.NewSource(seed))
	imps := make([]Impostor, binsCount)
	for i := range imps {
		imps[i] = Impostor{
			X: rng.Float64()*(binsW+16) - 8, Y: rng.Float64()*(binsH+16) - 8,
			// Half are flat (WorldRadius 0): a sphere's bulge gives every
			// pixel its own depth, and with it no ties.
			Depth: binsDepth(rng), Radius: rng.Float64() * 6, WorldRadius: float64(rng.Intn(2)) * 0.1,
			Color: binsColor(rng),
		}
	}
	return imps
}

// TestParallelBinsMatchSerial draws each primitive kind at more than
// parallelBinMin primitives, where binning splits across workers, and
// holds every worker count to the one-worker frame bit for bit: each band
// drains its workers' lists in chunk order, so the per-band draw order —
// and with it every equal-depth tie — must not depend on the split.
func TestParallelBinsMatchSerial(t *testing.T) {
	verts, tris := binsTriangles(1)
	sprites := binsSprites(2)
	imps := binsImpostors(3)
	light := vec.New(0.3, -0.4, 1)
	cases := []struct {
		name string
		draw func(f *fb.Frame, workers int)
	}{
		{"triangles", func(f *fb.Frame, workers int) { new(Bins).DrawTriangles(f, verts, tris, workers) }},
		{"sprites", func(f *fb.Frame, workers int) { DrawSprites(f, sprites, workers) }},
		{"impostors", func(f *fb.Frame, workers int) { new(Bins).DrawImpostors(f, imps, light, workers) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := fb.New(binsW, binsH)
			tc.draw(want, 1)
			if covered := want.CoveredPixels(); covered < binsW*binsH/2 {
				t.Fatalf("one worker covered %d of %d pixels: the test draws too little to compare", covered, binsW*binsH)
			}
			for _, workers := range []int{2, 4, 8} {
				got := fb.New(binsW, binsH)
				tc.draw(got, workers)
				requireFramesEqual(t, fmt.Sprintf("%d workers", workers), got, want)
			}
		})
	}
}

// requireFramesEqual asserts two frames hold the same Color and Depth
// bits.
func requireFramesEqual(t *testing.T, what string, got, want *fb.Frame) {
	t.Helper()
	bits := func(c vec.V3, d float64) [4]uint64 {
		return [4]uint64{math.Float64bits(c.X), math.Float64bits(c.Y), math.Float64bits(c.Z), math.Float64bits(d)}
	}
	for i := range want.Color {
		if bits(got.Color[i], got.Depth[i]) != bits(want.Color[i], want.Depth[i]) {
			t.Fatalf("%s: pixel %d is %v at depth %v, want %v at %v", what, i, got.Color[i], got.Depth[i], want.Color[i], want.Depth[i])
		}
	}
}
