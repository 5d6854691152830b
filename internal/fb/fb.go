// Package fb provides the software framebuffer the ETH renderers draw
// into: an RGB color buffer with a float depth buffer, atomic-free
// single-writer operations plus a locked variant for concurrent
// rasterization, PNG export, and the image-difference metrics (RMSE) used
// by the accuracy/energy trade-off experiments (Table II).
package fb

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"

	"github.com/ascr-ecx/eth/internal/vec"
)

// Frame is a W x H framebuffer with per-pixel RGB (float64, linear [0,1])
// and depth. Depth follows the camera convention: smaller values are
// closer; pixels start at +Inf depth and background color.
type Frame struct {
	W, H  int
	Color []vec.V3  // len W*H, linear RGB
	Depth []float64 // len W*H
}

// New returns a frame cleared to black with infinite depth.
func New(w, h int) *Frame {
	f := &Frame{
		W: w, H: h,
		Color: make([]vec.V3, w*h),
		Depth: make([]float64, w*h),
	}
	f.Clear(vec.V3{})
	return f
}

// Clear resets every pixel to bg color and infinite depth.
func (f *Frame) Clear(bg vec.V3) {
	for i := range f.Color {
		f.Color[i] = bg
		f.Depth[i] = math.Inf(1)
	}
}

// CopyFrom overwrites f's pixels with src's — a straight memmove of both
// planes, the cheap way to seed a working frame from an input (a depth
// merge onto a cleared frame walks every pixel through a compare for the
// same result). Frames must be the same size.
func (f *Frame) CopyFrom(src *Frame) error {
	if f.W != src.W || f.H != src.H {
		return fmt.Errorf("fb: frame sizes differ (%dx%d vs %dx%d)", f.W, f.H, src.W, src.H)
	}
	copy(f.Color, src.Color)
	copy(f.Depth, src.Depth)
	return nil
}

// Index returns the linear index of pixel (x, y); no bounds check.
func (f *Frame) Index(x, y int) int { return y*f.W + x }

// In reports whether (x, y) lies inside the frame.
func (f *Frame) In(x, y int) bool { return x >= 0 && x < f.W && y >= 0 && y < f.H }

// Set writes color c at (x, y) unconditionally (no depth test).
func (f *Frame) Set(x, y int, c vec.V3) {
	if !f.In(x, y) {
		return
	}
	f.Color[f.Index(x, y)] = c
}

// DepthSet writes color c at depth z if z passes the depth test
// (closer than the stored depth). Out-of-bounds writes are ignored.
// Not safe for concurrent writers to the same pixel; renderers
// partition the frame by scanline to avoid races.
func (f *Frame) DepthSet(x, y int, z float64, c vec.V3) {
	if !f.In(x, y) {
		return
	}
	i := f.Index(x, y)
	if z < f.Depth[i] {
		f.Depth[i] = z
		f.Color[i] = c
	}
}

// At returns the color of pixel (x, y), or black outside the frame.
func (f *Frame) At(x, y int) vec.V3 {
	if !f.In(x, y) {
		return vec.V3{}
	}
	return f.Color[f.Index(x, y)]
}

// ToImage converts the frame to an 8-bit sRGB image (gamma 2.2).
func (f *Frame) ToImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			c := f.Color[f.Index(x, y)].Clamp(0, 1)
			img.SetRGBA(x, y, color.RGBA{
				R: toSRGB(c.X),
				G: toSRGB(c.Y),
				B: toSRGB(c.Z),
				A: 255,
			})
		}
	}
	return img
}

func toSRGB(lin float64) uint8 {
	v := math.Pow(lin, 1/2.2) * 255
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return uint8(v + 0.5)
}

// WritePNG encodes the frame as PNG to w.
func (f *Frame) WritePNG(w io.Writer) error {
	return png.Encode(w, f.ToImage())
}

// SavePNG writes the frame to the named file.
func (f *Frame) SavePNG(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WritePNG(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// RMSE computes the root-mean-square error between two frames over all
// channels, the metric Table II of the paper reports. Colors are compared
// in linear space, clamped to [0,1], so the result lies in [0, sqrt(3)].
func RMSE(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("fb: frame sizes differ (%dx%d vs %dx%d)", a.W, a.H, b.W, b.H)
	}
	if len(a.Color) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range a.Color {
		ca := a.Color[i].Clamp(0, 1)
		cb := b.Color[i].Clamp(0, 1)
		d := ca.Sub(cb)
		sum += d.Dot(d)
	}
	return math.Sqrt(sum / float64(len(a.Color))), nil
}

// CoveredPixels returns the number of pixels with finite depth (i.e.
// written by some primitive), a cheap sanity metric for renders.
func (f *Frame) CoveredPixels() int {
	n := 0
	for _, d := range f.Depth {
		if !math.IsInf(d, 1) {
			n++
		}
	}
	return n
}
