package geom

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

// blastView is one rank's piece of blast-iso-ranks' grid (130×79×68, two
// ranks, seed 1) at epoch, with the camera of a one-image orbit step and
// vtk-iso's shading, its colour range pinned to the piece's field.
func blastView(tb testing.TB, epoch, rank int) (*data.StructuredGrid, camera.Camera, ShadeOptions) {
	tb.Helper()
	whole, err := blast.Generate(blast.Params{NX: 130, NY: 79, NZ: 68, BoxSize: 10, Seed: 1, TimeStep: epoch})
	if err != nil {
		tb.Fatal(err)
	}
	g := whole.Partition(2)[rank].(*data.StructuredGrid)
	b := g.Bounds()
	dir := vec.New(1, 0.5, 0).Norm()
	cam := camera.LookAt(b.Center().Add(dir.Scale(b.Diagonal()*1.2)), b.Center(), vec.New(0, 1, 0))
	cam.FitClip(b)
	f, err := g.Field("temperature")
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := f.MinMax()
	return g, cam, ShadeOptions{Colormap: fb.Hot, ScalarLo: lo, ScalarHi: hi}
}

// TestIsoShadesOnlyWrittenVertices: on one worker, DrawMesh shades only
// the vertices of triangles that write a pixel, fewer than the mesh has;
// on two and four it shades every vertex up front. Each frame is the
// eager reference's, bit for bit.
func TestIsoShadesOnlyWrittenVertices(t *testing.T) {
	const size = 256
	g, cam, opt := blastView(t, 3, 0)
	ref := refIsosurface(g, "temperature", 0.25)
	want := fb.New(size, size)
	refDrawMesh(want, ref, &cam, opt)
	if covered := want.CoveredPixels(); covered < size*size/20 {
		t.Fatalf("the reference covered %d pixels: too little to compare", covered)
	}
	for _, workers := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(workers)
		var s Scratch
		m, err := s.Isosurface(g, "temperature", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		got := fb.New(size, size)
		before := ctrShaded.Value()
		s.DrawMesh(got, m, &cam, opt)
		shaded := ctrShaded.Value() - before
		runtime.GOMAXPROCS(prev)
		requireSameFrame(t, fmt.Sprintf("%d workers", workers), got, want)
		switch {
		case workers == 1 && shaded >= int64(len(m.Verts)):
			t.Errorf("1 worker shaded %d of %d vertices: the draw shades vertices no pixel uses", shaded, len(m.Verts))
		case workers > 1 && shaded != int64(len(m.Verts)):
			t.Errorf("%d workers shaded %d of %d vertices, want every one", workers, shaded, len(m.Verts))
		}
		t.Logf("%d workers: %d of %d vertices shaded (%.0f %%)", workers, shaded, len(m.Verts), 100*float64(shaded)/float64(len(m.Verts)))
	}
}

// BenchmarkIsoDraw extracts and draws one vtk-iso image of
// blast-iso-ranks' rank 0 ("blast-rank0": epoch 3, isovalue 0.25, 256²,
// one worker, as ethperf runs it) on a warm Scratch. ns/op is per image;
// shaded/op counts the vertices whose normal and colour were computed,
// verts/op the mesh's vertices.
func BenchmarkIsoDraw(b *testing.B) {
	g, cam, opt := blastView(b, 3, 0)
	b.Run("blast-rank0", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var s Scratch
		f := fb.New(256, 256)
		verts := 0
		draw := func() {
			m, err := s.Isosurface(g, "temperature", 0.25)
			if err != nil {
				b.Fatal(err)
			}
			f.Clear(vec.V3{})
			s.DrawMesh(f, m, &cam, opt)
			verts = len(m.Verts)
		}
		draw()
		b.ReportAllocs()
		before := ctrShaded.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			draw()
		}
		b.StopTimer()
		b.ReportMetric(float64(ctrShaded.Value()-before)/float64(b.N), "shaded/op")
		b.ReportMetric(float64(verts), "verts/op")
		if f.CoveredPixels() == 0 {
			b.Fatal("nothing drawn")
		}
	})
}
