package fb

import "github.com/ascr-ecx/eth/internal/vec"

// Colormap maps a scalar in [0, 1] to a linear RGB color. Values outside
// [0, 1] are clamped, and NaN maps as 0. ETH uses colormaps to color particles by speed and
// volumes by temperature, matching the paper's rendering tasks.
type Colormap struct {
	stops []vec.V3 // equally spaced control colors
}

// Lookup returns the interpolated color for t in [0, 1].
func (c *Colormap) Lookup(t float64) vec.V3 {
	// Negated, so that a NaN, which would index no stop, is clamped too.
	if !(t >= 0) {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	n := len(c.stops)
	if n == 0 {
		return vec.V3{}
	}
	if n == 1 {
		return c.stops[0]
	}
	f := t * float64(n-1)
	i := int(f)
	if i >= n-1 {
		return c.stops[n-1]
	}
	return c.stops[i].Lerp(c.stops[i+1], f-float64(i))
}

// Viridis is a perceptually uniform colormap (coarse control points of
// matplotlib's viridis), the default for scalar fields.
var Viridis = &Colormap{
	stops: []vec.V3{
		{X: 0.267, Y: 0.005, Z: 0.329},
		{X: 0.283, Y: 0.141, Z: 0.458},
		{X: 0.254, Y: 0.265, Z: 0.530},
		{X: 0.207, Y: 0.372, Z: 0.553},
		{X: 0.164, Y: 0.471, Z: 0.558},
		{X: 0.128, Y: 0.567, Z: 0.551},
		{X: 0.135, Y: 0.659, Z: 0.518},
		{X: 0.267, Y: 0.749, Z: 0.441},
		{X: 0.478, Y: 0.821, Z: 0.318},
		{X: 0.741, Y: 0.873, Z: 0.150},
		{X: 0.993, Y: 0.906, Z: 0.144},
	},
}

// Hot maps 0 -> black through red and yellow to white, the classic
// temperature map used for the asteroid renders.
var Hot = &Colormap{
	stops: []vec.V3{
		{X: 0, Y: 0, Z: 0},
		{X: 0.5, Y: 0, Z: 0},
		{X: 1, Y: 0, Z: 0},
		{X: 1, Y: 0.5, Z: 0},
		{X: 1, Y: 1, Z: 0},
		{X: 1, Y: 1, Z: 1},
	},
}

// Gray is the identity grayscale map.
var Gray = &Colormap{
	stops: []vec.V3{{}, {X: 1, Y: 1, Z: 1}},
}
