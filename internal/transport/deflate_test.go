package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/sampling"
)

// renderFrame renders cloud with the named algorithm into a size² frame
// framed on the cloud's bounds, coloured by speed.
func renderFrame(tb testing.TB, alg string, cloud *data.PointCloud, size int) *fb.Frame {
	tb.Helper()
	r, err := render.New(alg)
	if err != nil {
		tb.Fatal(err)
	}
	frame := fb.New(size, size)
	cam := camera.ForBounds(cloud.Bounds())
	if _, err := r.Render(frame, cloud, &cam, render.Options{ColorField: "speed"}); err != nil {
		tb.Fatal(err)
	}
	return frame
}

// frameGridPayload is frame as the hub sends it: a W×H×1 grid with
// float32 r, g, b and depth fields, laid out as hub.FrameGrid lays it
// out (the hub imports this package, so its tests cannot import it).
func frameGridPayload(tb testing.TB, frame *fb.Frame) []byte {
	tb.Helper()
	n := frame.W * frame.H
	g := data.NewStructuredGrid(frame.W, frame.H, 1)
	for _, name := range []string{"r", "g", "b", "depth"} {
		g.Fields = append(g.Fields, data.Field{Name: name, Values: make([]float32, n)})
	}
	for i := 0; i < n; i++ {
		c := frame.Color[i]
		g.Fields[0].Values[i] = float32(c.X)
		g.Fields[1].Values[i] = float32(c.Y)
		g.Fields[2].Values[i] = float32(c.Z)
		g.Fields[3].Values[i] = float32(frame.Depth[i])
	}
	return vtkPayload(tb, g)
}

// cosmoCloud is the cosmo workloads' generator at n particles, seed 1.
func cosmoCloud(tb testing.TB, n int) *data.PointCloud {
	tb.Helper()
	p := cosmo.DefaultParams()
	p.Particles = n
	cloud, err := cosmo.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return cloud
}

// randomBytes is n bytes from a seeded source.
func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// floatPattern is n bytes of a float32 ramp that repeats every four
// values: the shape of a coordinate array on a lattice.
func floatPattern(n int) []byte {
	b := make([]byte, n&^3)
	for i := 0; i < len(b); i += 4 {
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(float32(i/4%4)*0.25+1))
	}
	return b
}

// deflatePayloads are the payloads the workloads put under a codec: the
// cosmo-wire dataset (100 k particles sampled stratified at 0.5) and its
// 256² viewer frame, one of blast-iso-ranks' two rank slabs, the 352²
// cosmo-raycast frame, and the two extremes.
func deflatePayloads(tb testing.TB) map[string][]byte {
	tb.Helper()
	cloud := cosmoCloud(tb, 100_000)
	sampled, err := sampling.Points(cloud, 0.5, sampling.Stratified, 1)
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := blast.Generate(blast.Params{NX: 130, NY: 79, NZ: 68, BoxSize: 10, Seed: 1, TimeStep: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"cosmo-wire-dataset": vtkPayload(tb, sampled),
		"cosmo-wire-frame":   frameGridPayload(tb, renderFrame(tb, "points", sampled, 256)),
		"blast-rank-slab":    vtkPayload(tb, grid.Partition(2)[0]),
		"raycast-frame":      frameGridPayload(tb, renderFrame(tb, "raycast", cosmoCloud(tb, 60_000), 352)),
		"zeros":              make([]byte, 1<<20),
		"random":             randomBytes(1<<20, 5),
	}
}

// checkDeflate decodes wire with compress/flate's reader and with the
// inflater and requires plain back from both.
func checkDeflate(tb testing.TB, wire, plain []byte) {
	tb.Helper()
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(wire)))
	if err != nil || !bytes.Equal(got, plain) {
		tb.Fatalf("compress/flate decodes %d of %d bytes (%v), not the input", len(got), len(plain), err)
	}
	var z inflater
	got, err = z.inflate(nil, wire, len(plain))
	if err != nil || !bytes.Equal(got, plain) {
		tb.Fatalf("inflate decodes %d of %d bytes (%v), not the input", len(got), len(plain), err)
	}
}

// storedBound is what storing every block of n bytes costs, plus room
// for a final empty block and a partial byte.
func storedBound(n int) int { return n + 5*((n+encBlock-1)/encBlock) + 8 }

// TestDeflateSizeParity holds the encoder to compress/flate BestSpeed's
// output size on every workload payload: never more than 1 % larger,
// so wire_kb_per_step cannot creep. Each stream must decode back through
// both readers. One deflater serves every payload, so stale match or
// code tables from the payload before would show.
func TestDeflateSizeParity(t *testing.T) {
	var z deflater
	var dst []byte
	for name, plain := range deflatePayloads(t) {
		dst = z.deflate(dst[:0], plain)
		checkDeflate(t, dst, plain)
		ref := len(stdDeflate(t, plain, flate.BestSpeed))
		t.Logf("%-18s %8d plain  %8d deflate  %8d compress/flate  (%+.3f %%)",
			name, len(plain), len(dst), ref, 100*(float64(len(dst))/float64(ref)-1))
		if float64(len(dst)) > 1.01*float64(ref) {
			t.Errorf("%s: %d bytes, more than 1.01 × compress/flate BestSpeed's %d", name, len(dst), ref)
		}
		if len(dst) > storedBound(len(plain)) {
			t.Errorf("%s: %d bytes, past the stored bound %d", name, len(dst), storedBound(len(plain)))
		}
	}
}

// fibonacci returns n Fibonacci weights, 1, 1, 2, 3, …: the counts that
// make the deepest optimal prefix code, n−1 bits for the rarest symbol.
func fibonacci(n int) []uint32 {
	w := []uint32{1, 1}
	for len(w) < n {
		w = append(w, w[len(w)-1]+w[len(w)-2])
	}
	return w[:n]
}

// TestDeflateLengthLimit builds codes whose optimal depths pass the
// format's limits — 15 bits for literal/length and distance codes, 7 for
// the code-length code — and requires every code within its limit and
// the code as a whole what the inflater's table builder accepts (complete),
// with each symbol's bits decoding back to that symbol.
func TestDeflateLengthLimit(t *testing.T) {
	var z deflater
	var h huffTable
	for _, tc := range []struct {
		n     int
		limit int32
	}{{22, maxLitBits}, {numCL, maxCLBits}, {numLit, maxLitBits}} {
		freq := make([]uint32, tc.n)
		copy(freq, fibonacci(min(tc.n, 24)))
		for i := 24; i < tc.n; i++ {
			freq[i] = 1
		}
		code := make([]uint32, tc.n)
		z.build(code, freq, tc.limit)
		lens := make([]uint8, tc.n)
		for s, e := range code {
			if l := int32(e >> 16); l < 1 || l > tc.limit {
				t.Fatalf("%d symbols, limit %d: symbol %d has a %d-bit code", tc.n, tc.limit, s, l)
			}
			lens[s] = uint8(e >> 16)
		}
		if !h.build(lens, alphaCode) {
			t.Fatalf("%d symbols, limit %d: the inflater refuses the code lengths %v", tc.n, tc.limit, lens)
		}
		for s, e := range code {
			b := uint64(e & codeMask)
			d := h.fast[b&fastMask]
			if d&kindMask == kindLong {
				d = h.slow(b)
			}
			if int(d>>16) != s || d&15 != e>>16 {
				t.Fatalf("%d symbols, limit %d: symbol %d's code decodes as %d", tc.n, tc.limit, s, d>>16)
			}
		}
	}
}

// TestDeflateSteadyStateAllocs gates a warm deflater at zero: a payload
// past the Conn's 1 MiB buffers, appended into a buffer with room, keeps
// its match table, sequences and code tables in the deflater.
func TestDeflateSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	plain := vtkPayload(t, allocCloud(largeCloud))
	var z deflater
	dst := z.deflate(nil, plain)
	if allocs := testing.AllocsPerRun(10, func() { dst = z.deflate(dst[:0], plain) }); allocs != 0 {
		t.Errorf("deflate of %d bytes allocates %.1f times per call, want 0", len(plain), allocs)
	}
}

// FuzzDeflate holds the encoder to the format on arbitrary bytes: after
// any prefix already in dst, the prefix survives, compress/flate's reader
// and the inflater both decode the stream to the input, and the stream
// is never larger than storing every block. One deflater and one output
// buffer serve every input, so stale tables or output cannot hide.
func FuzzDeflate(f *testing.F) {
	cloud := cosmoCloud(f, 20_000)
	for _, in := range [][]byte{
		nil,
		{0x42},
		make([]byte, 1<<20),
		randomBytes(1<<20, 9),
		floatPattern(1 << 16),
		vtkPayload(f, cloud),
		frameGridPayload(f, renderFrame(f, "points", cloud, 128)),
	} {
		f.Add([]byte("prefix"), in)
	}
	var z deflater
	var buf []byte
	f.Fuzz(func(t *testing.T, prefix, in []byte) {
		buf = z.deflate(append(buf[:0], prefix...), in)
		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("the %d-byte prefix did not survive", len(prefix))
		}
		wire := buf[len(prefix):]
		if len(wire) > storedBound(len(in)) {
			t.Fatalf("%d bytes deflate to %d, past the stored bound %d", len(in), len(wire), storedBound(len(in)))
		}
		checkDeflate(t, wire, in)
	})
}

// BenchmarkDeflate times the encoder against compress/flate BestSpeed on
// the cosmo-wire payloads, each side reusing its coder and output buffer.
func BenchmarkDeflate(b *testing.B) {
	payloads := deflatePayloads(b)
	for _, name := range []string{"cosmo-wire-dataset", "cosmo-wire-frame"} {
		plain := payloads[name]
		b.Run(name+"/deflate", func(b *testing.B) {
			var z deflater
			dst := z.deflate(nil, plain)
			b.SetBytes(int64(len(plain)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = z.deflate(dst[:0], plain)
			}
		})
		b.Run(name+"/compress-flate", func(b *testing.B) {
			var out bytes.Buffer
			zw, err := flate.NewWriter(&out, flate.BestSpeed)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(plain)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				zw.Reset(&out)
				if _, err := zw.Write(plain); err != nil {
					b.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
