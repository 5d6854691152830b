package data

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/vec"
)

func linearGrid(nx, ny, nz int) *StructuredGrid {
	g := NewStructuredGrid(nx, ny, nz)
	g.FillField("f", func(p vec.V3) float32 {
		return float32(2*p.X + 3*p.Y - p.Z + 1)
	})
	return g
}

func TestGridBasics(t *testing.T) {
	g := NewStructuredGrid(3, 4, 5)
	if g.Kind() != KindStructuredGrid {
		t.Errorf("kind = %v", g.Kind())
	}
	if g.Count() != 60 {
		t.Errorf("count = %d", g.Count())
	}
	if g.Cells() != 2*3*4 {
		t.Errorf("cells = %d", g.Cells())
	}
	if g.Index(2, 3, 4) != 2+3*(3+4*4) {
		t.Errorf("index = %d", g.Index(2, 3, 4))
	}
	b := g.Bounds()
	if b.Min != (vec.V3{}) || b.Max != vec.New(2, 3, 4) {
		t.Errorf("bounds = %+v", b)
	}
	g.Origin = vec.New(1, 1, 1)
	g.Spacing = vec.New(0.5, 2, 1)
	if got := g.VertexPos(2, 1, 0); got != vec.New(2, 3, 1) {
		t.Errorf("vertex pos = %v", got)
	}
}

func TestGridFieldManagement(t *testing.T) {
	g := NewStructuredGrid(2, 2, 2)
	if err := g.AddField("t", make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddField("bad", make([]float32, 7)); err == nil {
		t.Error("accepted wrong-length field")
	}
	if _, err := g.Field("t"); err != nil {
		t.Error(err)
	}
	if _, err := g.Field("missing"); err == nil {
		t.Error("missing field did not error")
	}
}

func TestTrilinearSampleReproducesLinearField(t *testing.T) {
	// Trilinear interpolation is exact for fields linear in x, y, z.
	g := linearGrid(5, 6, 7)
	f, _ := g.Field("f")
	pts := []vec.V3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 3.99, Y: 4.99, Z: 5.99},
		{X: 0, Y: 0, Z: 0},
		{X: 4, Y: 5, Z: 6},
		{X: 1.25, Y: 2.5, Z: 3.75},
	}
	for _, p := range pts {
		want := 2*p.X + 3*p.Y - p.Z + 1
		got := float64(g.Sample(f, p))
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("Sample(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestSampleClampsOutside(t *testing.T) {
	g := linearGrid(3, 3, 3)
	f, _ := g.Field("f")
	inside := g.Sample(f, vec.New(0, 0, 0))
	outside := g.Sample(f, vec.New(-5, -5, -5))
	if inside != outside {
		t.Errorf("clamp failed: inside %v outside %v", inside, outside)
	}
}

// clamp0 replaced math.Min(math.Max(x, 0), hi) in Sample; every frame a
// marcher or a contour normal ever produced depends on the two agreeing
// to the bit, signed zeros and infinities included.
func TestClamp0MatchesMinMax(t *testing.T) {
	inf := math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	xs := []float64{
		negZero, 0, tiny, -tiny, 0.5, 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
		63, math.Nextafter(63, 0), math.Nextafter(63, 64), 64, -1, -63, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64, inf, -inf,
	}
	for _, hi := range []float64{0, 1, 63, 1e6} {
		for _, x := range xs {
			want := math.Min(math.Max(x, 0), hi)
			if got := clamp0(x, hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("clamp0(%v, %v) = %v (bits %#x), math.Min(math.Max) gives %v (bits %#x)",
					x, hi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if got := clamp0(math.NaN(), 5); got == got {
		t.Errorf("clamp0(NaN, 5) = %v, want NaN as before", got)
	}
}

func TestGradientOfLinearField(t *testing.T) {
	g := linearGrid(8, 8, 8)
	f, _ := g.Field("f")
	grad := g.Gradient(f, vec.New(3.5, 3.5, 3.5))
	want := vec.New(2, 3, -1)
	if grad.Sub(want).Len() > 1e-3 {
		t.Errorf("gradient = %v, want %v", grad, want)
	}
}

func TestGridPartitionSharesBoundaryPlane(t *testing.T) {
	g := linearGrid(9, 4, 4) // longest axis = X with 8 cells
	pieces := g.Partition(2)
	if len(pieces) != 2 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	a := pieces[0].(*StructuredGrid)
	b := pieces[1].(*StructuredGrid)
	// 8 cells split 4+4 -> 5 vertices each with shared plane.
	if a.NX != 5 || b.NX != 5 {
		t.Fatalf("NX = %d, %d", a.NX, b.NX)
	}
	// Shared plane: last X-plane of a equals first X-plane of b.
	fa, _ := a.Field("f")
	fb, _ := b.Field("f")
	for k := 0; k < a.NZ; k++ {
		for j := 0; j < a.NY; j++ {
			va := fa.Values[a.Index(a.NX-1, j, k)]
			vb := fb.Values[b.Index(0, j, k)]
			if va != vb {
				t.Fatalf("boundary mismatch at j=%d k=%d: %v vs %v", j, k, va, vb)
			}
		}
	}
	// World bounds: union must equal the original.
	u := a.Bounds().Union(b.Bounds())
	if u != g.Bounds() {
		t.Errorf("union bounds %+v != original %+v", u, g.Bounds())
	}
}

func TestGridPartitionClampsPieceCount(t *testing.T) {
	g := linearGrid(3, 2, 2) // only 2 cells along X
	pieces := g.Partition(10)
	if len(pieces) != 2 {
		t.Errorf("pieces = %d, want clamp to 2", len(pieces))
	}
	if len(linearGrid(2, 2, 2).Partition(5)) != 1 {
		t.Error("single-cell grid should not split")
	}
	if got := g.Partition(1); len(got) != 1 || got[0] != Dataset(g) {
		t.Error("Partition(1) should return the grid itself")
	}
}

// Property: sampling at any vertex position returns the stored value.
func TestSampleAtVerticesProperty(t *testing.T) {
	g := linearGrid(4, 5, 6)
	f, _ := g.Field("f")
	fn := func(iRaw, jRaw, kRaw uint8) bool {
		i := int(iRaw) % g.NX
		j := int(jRaw) % g.NY
		k := int(kRaw) % g.NZ
		got := g.Sample(f, g.VertexPos(i, j, k))
		want := f.Values[g.Index(i, j, k)]
		return math.Abs(float64(got-want)) < 1e-5
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestDownsample(t *testing.T) {
	g := linearGrid(9, 9, 9)
	d := g.Downsample(2)
	if d.NX != 5 || d.NY != 5 || d.NZ != 5 {
		t.Fatalf("dims = %d %d %d", d.NX, d.NY, d.NZ)
	}
	if d.Spacing != vec.Splat(2) {
		t.Errorf("spacing = %v", d.Spacing)
	}
	f, _ := d.Field("f")
	src, _ := g.Field("f")
	// Vertex (1,1,1) of the downsampled grid is (2,2,2) of the source.
	if f.Values[d.Index(1, 1, 1)] != src.Values[g.Index(2, 2, 2)] {
		t.Error("downsampled values misaligned")
	}
	// Stride 1 returns the same grid.
	if g.Downsample(1) != g {
		t.Error("stride 1 should be identity")
	}
	// Bytes accounts fields.
	if g.Bytes() != int64(g.Count()*4) {
		t.Errorf("bytes = %d", g.Bytes())
	}
}

func TestDownsampleKeepsMinimumDims(t *testing.T) {
	g := linearGrid(3, 3, 3)
	d := g.Downsample(10)
	if d.NX < 2 || d.NY < 2 || d.NZ < 2 {
		t.Errorf("downsample collapsed grid: %d %d %d", d.NX, d.NY, d.NZ)
	}
}
