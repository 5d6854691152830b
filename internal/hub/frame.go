// Frame transport: a rendered framebuffer travels to subscribers as a
// W x H x 1 structured grid with r/g/b/depth vertex fields, so the
// existing vtkio container, the v3 wire framing, and every codec (delta
// keyframing included) apply to image streams unchanged.
package hub

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/mempool"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Broadcast frame field names, in canonical order.
const (
	fieldR     = "r"
	fieldG     = "g"
	fieldB     = "b"
	fieldDepth = "depth"
)

// FrameGrid converts a framebuffer into its wire dataset form. When
// reuse has matching shape its field arrays are overwritten in place, so
// a steady stream of equal-sized frames converts without allocating.
// Color and depth are quantized to float32 (the container's scalar
// type); depth +Inf (background) survives the round trip.
func FrameGrid(f *fb.Frame, reuse *data.StructuredGrid) *data.StructuredGrid {
	n := f.W * f.H
	g := reuse
	if g == nil || g.NX != f.W || g.NY != f.H || g.NZ != 1 || len(g.Fields) != 4 ||
		len(g.Fields[0].Values) != n {
		g = data.NewStructuredGrid(f.W, f.H, 1)
		for _, name := range []string{fieldR, fieldG, fieldB, fieldDepth} {
			g.Fields = append(g.Fields, data.Field{Name: name, Values: make([]float32, n)})
		}
	}
	r, gg, b, d := g.Fields[0].Values, g.Fields[1].Values, g.Fields[2].Values, g.Fields[3].Values
	for i := 0; i < n; i++ {
		c := f.Color[i]
		r[i] = float32(c.X)
		gg[i] = float32(c.Y)
		b[i] = float32(c.Z)
		d[i] = float32(f.Depth[i])
	}
	return g
}

// GridFrame is FrameGrid's inverse on the subscriber side. When reuse
// has matching shape it is overwritten in place and returned.
func GridFrame(ds data.Dataset, reuse *fb.Frame) (*fb.Frame, error) {
	g, ok := ds.(*data.StructuredGrid)
	if !ok {
		return nil, fmt.Errorf("hub: frame dataset is %v, want structured grid", ds.Kind())
	}
	if g.NZ != 1 || len(g.Fields) != 4 {
		return nil, fmt.Errorf("hub: frame grid %dx%dx%d with %d fields is not a broadcast frame",
			g.NX, g.NY, g.NZ, len(g.Fields))
	}
	for i, name := range []string{fieldR, fieldG, fieldB, fieldDepth} {
		if g.Fields[i].Name != name {
			return nil, fmt.Errorf("hub: frame grid field %d is %q, want %q", i, g.Fields[i].Name, name)
		}
		if len(g.Fields[i].Values) != g.NX*g.NY {
			return nil, fmt.Errorf("hub: frame grid field %q has %d values, want %d",
				name, len(g.Fields[i].Values), g.NX*g.NY)
		}
	}
	f := reuse
	if f == nil || f.W != g.NX || f.H != g.NY {
		f = fb.New(g.NX, g.NY)
	}
	r, gg, b, d := g.Fields[0].Values, g.Fields[1].Values, g.Fields[2].Values, g.Fields[3].Values
	for i := range f.Color {
		f.Color[i] = vec.V3{X: float64(r[i]), Y: float64(gg[i]), Z: float64(b[i])}
		f.Depth[i] = float64(d[i])
	}
	return f, nil
}

// sigChunk is how many pixels FrameSig encodes per CRC update.
const sigChunk = 256

// FrameSig is a quantization-stable signature of a frame's pixels: both
// a frame that crossed the wire (float32 fields) and its float64 source
// hash identically, because the source is quantized the same way the
// wire conversion quantizes. Used by tests and clients to prove
// byte-identical delivery. It is the CRC-32C of every pixel's r, g, b
// and depth as big-endian float32, in pixel order; since a CRC streams,
// updating it once per chunk of pixels gives the per-pixel value. The
// chunk buffer comes from mempool: crc32 hands it to a function value,
// so a stack array would escape.
func FrameSig(f *fb.Frame) uint32 {
	buf := mempool.Bytes(sigChunk * 16)
	crc := uint32(0)
	for lo := 0; lo < len(f.Color); lo += sigChunk {
		px := f.Color[lo:min(lo+sigChunk, len(f.Color))]
		depth := f.Depth[lo : lo+len(px)]
		for i, c := range px {
			b := buf[16*i : 16*i+16]
			binary.BigEndian.PutUint32(b[0:], math.Float32bits(float32(c.X)))
			binary.BigEndian.PutUint32(b[4:], math.Float32bits(float32(c.Y)))
			binary.BigEndian.PutUint32(b[8:], math.Float32bits(float32(c.Z)))
			binary.BigEndian.PutUint32(b[12:], math.Float32bits(float32(depth[i])))
		}
		crc = crc32.Update(crc, castagnoli, buf[:16*len(px)])
	}
	mempool.PutBytes(buf)
	return crc
}
