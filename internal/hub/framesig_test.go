package hub

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// frameSigPerPixel is the per-pixel FrameSig the chunked one replaced:
// one 16-byte CRC update per pixel.
func frameSigPerPixel(f *fb.Frame) uint32 {
	var buf [16]byte
	crc := uint32(0)
	for i := range f.Color {
		c := f.Color[i]
		put32 := func(off int, v float32) {
			bits := math.Float32bits(v)
			buf[off] = byte(bits >> 24)
			buf[off+1] = byte(bits >> 16)
			buf[off+2] = byte(bits >> 8)
			buf[off+3] = byte(bits)
		}
		put32(0, float32(c.X))
		put32(4, float32(c.Y))
		put32(8, float32(c.Z))
		put32(12, float32(f.Depth[i]))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// sigFrame is a w×h frame of arbitrary float64 pixels, background depth
// and the odd special value included, so the float32 quantization is
// exercised too.
func sigFrame(seed int64, w, h int) *fb.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := fb.New(w, h)
	special := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(), 1e-40, 3.4e39}
	for i := range f.Color {
		f.Color[i] = vec.V3{X: rng.Float64(), Y: rng.NormFloat64(), Z: rng.ExpFloat64()}
		if rng.Intn(4) > 0 {
			f.Depth[i] = rng.Float64() * 100
		}
		if rng.Intn(50) == 0 {
			f.Color[i].Y = special[rng.Intn(len(special))]
			f.Depth[i] = special[rng.Intn(len(special))]
		}
	}
	return f
}

// TestFrameSigMatchesPerPixel holds the chunked FrameSig to the per-pixel
// reference on frames shorter than one chunk, exactly one, one either
// side of a chunk boundary, and sizes that end in a partial chunk.
func TestFrameSigMatchesPerPixel(t *testing.T) {
	sizes := [][2]int{
		{0, 0}, {1, 1}, {3, 5}, {16, 16}, {17, 15}, {257, 1}, {1, 511},
		{16, 32}, {33, 31}, {100, 100}, {353, 351},
	}
	for i, sz := range sizes {
		f := sigFrame(int64(i)+1, sz[0], sz[1])
		if got, want := FrameSig(f), frameSigPerPixel(f); got != want {
			t.Errorf("%dx%d (%d px): FrameSig = %08x, per-pixel reference %08x", sz[0], sz[1], sz[0]*sz[1], got, want)
		}
	}
}

// TestFrameSigAllocs holds FrameSig at exactly zero allocations: its
// chunk buffer comes from mempool and goes back to it.
func TestFrameSigAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	for _, sz := range [][2]int{{352, 352}, {33, 31}} {
		t.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(t *testing.T) {
			f := sigFrame(7, sz[0], sz[1])
			var sig uint32
			if allocs := testing.AllocsPerRun(10, func() { sig = FrameSig(f) }); allocs != 0 {
				t.Errorf("FrameSig allocates %.1f times per call, want exactly 0", allocs)
			}
			if sig != frameSigPerPixel(f) {
				t.Error("signature differs from the per-pixel reference")
			}
		})
	}
}

// BenchmarkFrameSig times one signature of a cosmo-wire sized frame.
func BenchmarkFrameSig(b *testing.B) {
	f := sigFrame(7, 352, 352)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FrameSig(f)
	}
}
