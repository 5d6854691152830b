package raster_test

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/vec"
)

// blastPiece is one rank's piece of blast-iso-ranks' grid (130×79×68, two
// ranks) at seed 1 and the given epoch.
func blastPiece(tb testing.TB, epoch, rank int) *data.StructuredGrid {
	tb.Helper()
	g, err := blast.Generate(blast.Params{NX: 130, NY: 79, NZ: 68, BoxSize: 10, Seed: 1, TimeStep: epoch})
	if err != nil {
		tb.Fatal(err)
	}
	return g.Partition(2)[rank].(*data.StructuredGrid)
}

// blastMesh returns what DrawMesh hands the rasterizer for one vtk-iso
// image of piece: its temperature isosurface at iso, projected to size²
// pixels by image img of a total-image orbit, as the visualization proxy
// frames it, and shaded smooth with the Hot colormap under a headlight.
// Triangles with a corner behind the near plane are dropped.
func blastMesh(tb testing.TB, piece *data.StructuredGrid, iso float32, img, total, size int) ([]raster.Vertex, [][3]int32) {
	tb.Helper()
	m, err := geom.Isosurface(piece, "temperature", iso)
	if err != nil {
		tb.Fatal(err)
	}
	field, err := piece.Field("temperature")
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := field.MinMax()

	b := piece.Bounds()
	angle := 2 * math.Pi * float64(img) / float64(total)
	dir := vec.New(math.Cos(angle), 0.5, math.Sin(angle)).Norm()
	cam := camera.LookAt(b.Center().Add(dir.Scale(b.Diagonal()*1.2)), b.Center(), vec.New(0, 1, 0))
	cam.FitClip(b)
	proj := cam.NewProjector(size, size)
	light := cam.Eye.Sub(cam.Center).Norm()

	verts := make([]raster.Vertex, len(m.Verts))
	keep := make([]bool, len(m.Verts))
	for i, p := range m.Verts {
		x, y, depth, ok := proj.Project(p)
		shade := 0.25 + 0.75*math.Abs(m.VertexNormal(i).Dot(light))
		color := fb.Hot.Lookup(float64(m.Scalars[i]-lo) / float64(hi-lo)).Scale(shade)
		verts[i], keep[i] = raster.Vertex{X: x, Y: y, Depth: depth, Color: color}, ok
	}
	var tris [][3]int32
	for _, t := range m.Tris {
		if keep[t[0]] && keep[t[1]] && keep[t[2]] {
			tris = append(tris, t)
		}
	}
	return verts, tris
}

// TestBlastMeshMatchesBoxReference holds DrawTriangles to the binned,
// loose-box rasterizer it replaced, bit for bit, on the meshes a blast
// rank hands it — three isovalues, each from its own orbit camera — at
// one, two and four workers.
func TestBlastMeshMatchesBoxReference(t *testing.T) {
	piece := blastPiece(t, 3, 0)
	for img, iso := range []float32{0.25, 0.5, 0.75} {
		verts, tris := blastMesh(t, piece, iso, img, 3, 256)
		if len(tris) < 10_000 {
			t.Fatalf("isovalue %g: %d triangles, want a blast-sized mesh", iso, len(tris))
		}
		want := fb.New(256, 256)
		raster.RefBoxDrawTriangles(want, verts, tris)
		if covered := want.CoveredPixels(); covered < 256*256/20 {
			t.Fatalf("isovalue %g: the reference covered %d pixels: the test draws too little to compare", iso, covered)
		}
		for _, workers := range []int{1, 2, 4} {
			got := fb.New(256, 256)
			new(raster.Bins).DrawTriangles(got, verts, tris, workers)
			for i := range want.Color {
				if got.Color[i] != want.Color[i] || math.Float64bits(got.Depth[i]) != math.Float64bits(want.Depth[i]) {
					t.Fatalf("isovalue %g, %d workers: pixel %d is %v at depth %v, want %v at %v",
						iso, workers, i, got.Color[i], got.Depth[i], want.Color[i], want.Depth[i])
				}
			}
		}
	}
}

// BenchmarkTriangles draws 2 000 synthetic 9×11-pixel triangles
// ("synthetic"), and one image of blast-iso-ranks' rank 0 as DrawMesh
// hands it over ("blast-rank0": epoch 3, isovalue 0.25, 58 534 mostly
// sub-pixel triangles, 256², one worker, as ethperf runs it). ns/op is
// per image.
func BenchmarkTriangles(b *testing.B) {
	var syn [][3]raster.Vertex
	for i := 0; i < 2000; i++ {
		x := float64(i%50) * 10
		y := float64(i/50) * 12
		syn = append(syn, [3]raster.Vertex{
			{X: x, Y: y, Depth: 1, Color: vec.New(1, 0, 0)},
			{X: x + 9, Y: y, Depth: 1, Color: vec.New(0, 1, 0)},
			{X: x, Y: y + 11, Depth: 1, Color: vec.New(0, 0, 1)},
		})
	}
	synVerts := make([]raster.Vertex, 0, 3*len(syn))
	synTris := make([][3]int32, len(syn))
	for i, t := range syn {
		synVerts = append(synVerts, t[:]...)
		synTris[i] = [3]int32{int32(3 * i), int32(3*i + 1), int32(3*i + 2)}
	}
	blastVerts, blastTris := blastMesh(b, blastPiece(b, 3, 0), 0.25, 0, 1, 256)
	for _, c := range []struct {
		name    string
		size    int
		verts   []raster.Vertex
		tris    [][3]int32
		workers int
	}{
		{"synthetic", 512, synVerts, synTris, 0},
		{"blast-rank0", 256, blastVerts, blastTris, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := fb.New(c.size, c.size)
			b.ReportMetric(float64(len(c.tris)), "triangles")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Clear(vec.V3{})
				new(raster.Bins).DrawTriangles(f, c.verts, c.tris, c.workers)
			}
		})
	}
}
