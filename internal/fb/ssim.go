package fb

import "fmt"

// SSIM computes the mean structural similarity index between two frames —
// the kind of perception-oriented quality metric the paper anticipates
// users will substitute for RMSE ("we expect users of the toolkit to use
// more sophisticated metrics explicitly targeted at measuring the
// perception quality of an image", §VI-A). Implementation follows Wang
// et al. 2004: luminance images, 8x8 windows with stride 4, the standard
// stabilization constants, dynamic range 1.0. Returns a value in
// [-1, 1]; 1 means identical.
func SSIM(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("fb: frame sizes differ (%dx%d vs %dx%d)", a.W, a.H, b.W, b.H)
	}
	if a.W == 0 || a.H == 0 {
		return 1, nil
	}
	la := luminance(a)
	lb := luminance(b)

	const (
		win    = 8
		stride = 4
		c1     = 0.01 * 0.01 // (k1 L)^2 with L = 1
		c2     = 0.03 * 0.03
	)

	var total float64
	windows := 0
	for y0 := 0; y0 < a.H; y0 += stride {
		for x0 := 0; x0 < a.W; x0 += stride {
			x1 := x0 + win
			y1 := y0 + win
			if x1 > a.W {
				x1 = a.W
			}
			if y1 > a.H {
				y1 = a.H
			}
			n := float64((x1 - x0) * (y1 - y0))
			if n < 4 {
				continue
			}
			var sumA, sumB float64
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					i := y*a.W + x
					sumA += la[i]
					sumB += lb[i]
				}
			}
			muA := sumA / n
			muB := sumB / n
			var varA, varB, cov float64
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					i := y*a.W + x
					da := la[i] - muA
					db := lb[i] - muB
					varA += da * da
					varB += db * db
					cov += da * db
				}
			}
			varA /= n - 1
			varB /= n - 1
			cov /= n - 1

			ssim := ((2*muA*muB + c1) * (2*cov + c2)) /
				((muA*muA + muB*muB + c1) * (varA + varB + c2))
			total += ssim
			windows++
		}
	}
	if windows == 0 {
		return 1, nil
	}
	return total / float64(windows), nil
}

// luminance converts the frame to Rec. 709 luma in [0, 1].
func luminance(f *Frame) []float64 {
	out := make([]float64, len(f.Color))
	for i, c := range f.Color {
		cc := c.Clamp(0, 1)
		out[i] = 0.2126*cc.X + 0.7152*cc.Y + 0.0722*cc.Z
	}
	return out
}
