package vtkio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

func sampleCloud(n int, seed int64) *data.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = rng.Int63()
		p.SetPos(i, vec.New(rng.Float64(), rng.Float64(), rng.Float64()))
		p.SetVel(i, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	p.SpeedField()
	return p
}

func sampleGrid() *data.StructuredGrid {
	g := data.NewStructuredGrid(4, 5, 6)
	g.Origin = vec.New(-1, 2, 3)
	g.Spacing = vec.New(0.5, 0.25, 2)
	g.FillField("temp", func(p vec.V3) float32 { return float32(p.X*p.Y + p.Z) })
	g.FillField("rho", func(p vec.V3) float32 { return float32(p.Len()) })
	return g
}

func TestPointCloudRoundTrip(t *testing.T) {
	p := sampleCloud(137, 42)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := got.(*data.PointCloud)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if !reflect.DeepEqual(p.IDs, q.IDs) {
		t.Error("IDs differ")
	}
	if !reflect.DeepEqual(p.X, q.X) || !reflect.DeepEqual(p.Y, q.Y) || !reflect.DeepEqual(p.Z, q.Z) {
		t.Error("positions differ")
	}
	if !reflect.DeepEqual(p.VX, q.VX) || !reflect.DeepEqual(p.VY, q.VY) || !reflect.DeepEqual(p.VZ, q.VZ) {
		t.Error("velocities differ")
	}
	if !reflect.DeepEqual(p.Fields, q.Fields) {
		t.Error("fields differ")
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := sampleGrid()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := got.(*data.StructuredGrid)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if h.NX != g.NX || h.NY != g.NY || h.NZ != g.NZ {
		t.Errorf("dims = %d %d %d", h.NX, h.NY, h.NZ)
	}
	if h.Origin != g.Origin || h.Spacing != g.Spacing {
		t.Errorf("geometry differs: %v %v", h.Origin, h.Spacing)
	}
	if !reflect.DeepEqual(g.Fields, h.Fields) {
		t.Error("fields differ")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cloud.ethd")
	p := sampleCloud(10, 7)
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 10 {
		t.Errorf("count = %d", got.Count())
	}
}

func TestEmptyCloudRoundTrip(t *testing.T) {
	p := data.NewPointCloud(0)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Errorf("count = %d", got.Count())
	}
}

func TestBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPE-not-a-container")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, data.NewPointCloud(1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // clobber version
	_, err := Read(bytes.NewReader(b))
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCloud(100, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{0, 3, 7, 20, len(b) / 2, len(b) - 1} {
		if _, err := Read(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestCorruptFieldCountRejected(t *testing.T) {
	g := data.NewStructuredGrid(2, 2, 2)
	g.FillField("f", func(vec.V3) float32 { return 1 })
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The field value-count lives right after the name; flip a low byte of
	// the count to make it disagree with the grid size.
	// header: 4 magic + 2 ver + 1 kind + 24 dims + 48 geo + 4 fieldcount
	// + 2 namelen + 1 name = 86; count at [86:94].
	b[86] = 3
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("mismatched field count not detected")
	}
}

func TestImplausibleCountRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, data.NewPointCloud(1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Particle count is the uint64 at offset 7; make it absurd.
	for i := 0; i < 8; i++ {
		b[7+i] = 0xFF
	}
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("implausible count not rejected")
	}
}

// Property: round-trip preserves arbitrary float32 payloads bit-exactly
// (including negative zero; NaN payloads compare by bits via DeepEqual on
// the underlying slice after a bits comparison would be overkill — we
// exclude NaN here and cover it in the explicit test below).
func TestRoundTripProperty(t *testing.T) {
	f := func(xs []float32) bool {
		for i, v := range xs {
			if v != v { // strip NaN; compared separately
				xs[i] = 0
			}
		}
		p := data.NewPointCloud(len(xs))
		copy(p.X, xs)
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.(*data.PointCloud).X, p.X)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteCloud(b *testing.B) {
	p := sampleCloud(100_000, 9)
	b.SetBytes(p.Bytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCloud(b *testing.B) {
	p := sampleCloud(100_000, 9)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(p.Bytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUnstructuredRoundTrip(t *testing.T) {
	g := sampleGrid()
	u := data.Tetrahedralize(g)
	var buf bytes.Buffer
	if err := Write(&buf, u); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := got.(*data.UnstructuredGrid)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if v.Count() != u.Count() || v.Cells() != u.Cells() {
		t.Fatalf("sizes: %d/%d vs %d/%d", v.Count(), v.Cells(), u.Count(), u.Cells())
	}
	if !reflect.DeepEqual(u.Tets, v.Tets) {
		t.Error("tets differ")
	}
	if !reflect.DeepEqual(u.Fields, v.Fields) {
		t.Error("fields differ")
	}
	// Positions survive the float32 round trip of the original grid
	// coordinates exactly (they were float32-representable).
	for i := range u.Points {
		if u.Points[i].Sub(v.Points[i]).Len() > 1e-6 {
			t.Fatalf("point %d drifted", i)
		}
	}
}

func TestUnstructuredCorruptIndexRejected(t *testing.T) {
	u := data.Tetrahedralize(sampleGrid())
	var buf bytes.Buffer
	if err := Write(&buf, u); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the first tet index (after 7-byte header + 16-byte sizes +
	// 12*nPoints coordinates) to reference an absurd vertex.
	off := 7 + 16 + 12*u.Count()
	b[off] = 0xFF
	b[off+1] = 0xFF
	b[off+2] = 0xFF
	b[off+3] = 0x7F
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("out-of-range tet index accepted")
	}
}

// Corruption robustness: flipping any single byte of a valid stream must
// never panic — Read either errors or returns a structurally sane
// dataset (flips in float payloads are undetectable by design).
func TestRandomCorruptionNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCloud(50, 3)); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		b := make([]byte, len(base))
		copy(b, base)
		pos := rng.Intn(len(b))
		b[pos] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with byte %d flipped: %v", pos, r)
				}
			}()
			ds, err := Read(bytes.NewReader(b))
			if err == nil && ds.Count() < 0 {
				t.Fatalf("negative count after corruption at %d", pos)
			}
		}()
	}
}

func TestRandomTruncationNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, data.Tetrahedralize(sampleGrid())); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		cut := rng.Intn(len(base))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			if _, err := Read(bytes.NewReader(base[:cut])); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(base))
			}
		}()
	}
}

// TestHugeCountRejectedCheaply: a container of at most 64 bytes that
// announces 2³² values — as a particle count or as an unstructured point
// or tet count — is rejected after allocating under 1 KiB, because
// Decode checks each count against the bytes left before it allocates.
// So is a field of 2³² values under a grid of that size (94 bytes: a
// grid's fixed header alone is 79).
func TestHugeCountRejectedCheaply(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const huge = 1 << 32
	le := binary.LittleEndian
	head := func(k data.Kind) []byte { return append(append(magic[:0:0], magic[:]...), 1, 0, byte(k)) }
	cloud := le.AppendUint64(head(data.KindPointCloud), huge)
	grid := head(data.KindStructuredGrid)
	for _, v := range []uint64{1 << 16, 1 << 16, 1} {
		grid = le.AppendUint64(grid, v)
	}
	grid = append(grid, make([]byte, 48)...) // origin and spacing
	grid = le.AppendUint32(grid, 1)
	grid = le.AppendUint16(grid, 1)
	grid = append(grid, 'f')
	grid = le.AppendUint64(grid, huge)
	points := le.AppendUint64(le.AppendUint64(head(data.KindUnstructuredGrid), huge), 0)
	tets := le.AppendUint64(le.AppendUint64(head(data.KindUnstructuredGrid), 0), huge)
	for name, in := range map[string][]byte{"cloud": cloud, "grid field": grid, "points": points, "tets": tets} {
		if len(in) > 64 && name != "grid field" {
			t.Fatalf("%s: container is %d bytes, want <= 64", name, len(in))
		}
		// TotalAlloc is process-wide, so anything else allocating in the
		// test binary during a try counts against it: take the least of
		// five. A decoder that allocates the announced values pays them
		// on every try.
		least := ^uint64(0)
		var err error
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = Decode(in, nil)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if err == nil {
			t.Errorf("%s: 2^32 values announced in %d bytes accepted", name, len(in))
		}
		if least >= 1024 {
			t.Errorf("%s: rejecting it allocated %d bytes, want < 1024", name, least)
		}
	}
}

// TestAppendDecodeAllocs gates the slice codec's steady state at zero:
// Append into a buffer with room, and Decode into a previous dataset of
// the same shape, allocate nothing for every kind.
func TestAppendDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	for _, ds := range []data.Dataset{sampleCloud(10_000, 5), sampleGrid(), data.Tetrahedralize(sampleGrid())} {
		buf, err := Append(nil, ds)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { buf, _ = Append(buf[:0], ds) }); allocs != 0 {
			t.Errorf("%v: Append into a buffer with room allocates %.1f times, want 0", ds.Kind(), allocs)
		}
		prev, err := Decode(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { prev, err = Decode(buf, prev) }); allocs != 0 || err != nil {
			t.Errorf("%v: Decode into a matching dataset allocates %.1f times (err %v), want 0", ds.Kind(), allocs, err)
		}
	}
}
