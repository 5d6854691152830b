// Package vec provides the small fixed-size linear-algebra types used by
// every geometric component of ETH: 3-vectors, 4x4 matrices, and axis-aligned
// bounding boxes. All types are plain value types with float64 components;
// operations return new values and never mutate their receivers, which keeps
// the renderers free of aliasing bugs at negligible cost (the compiler keeps
// these in registers).
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-component vector of float64. It is used for positions,
// directions, colors (RGB in [0,1]) and velocities.
type V3 struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V3 { return V3{x, y, z} }

// Splat returns the vector (s, s, s).
func Splat(s float64) V3 { return V3{s, s, s} }

// Add returns v + u.
func (v V3) Add(u V3) V3 { return V3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v V3) Sub(u V3) V3 { return V3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Mul returns the component-wise product v * u.
func (v V3) Mul(u V3) V3 { return V3{v.X * u.X, v.Y * u.Y, v.Z * u.Z} }

// Scale returns v * s.
func (v V3) Scale(s float64) V3 { return V3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v . u.
func (v V3) Dot(u V3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v x u.
func (v V3) Cross(u V3) V3 {
	return V3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Len returns the Euclidean length of v.
func (v V3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared length of v.
func (v V3) Len2() float64 { return v.Dot(v) }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v V3) Norm() V3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp returns the linear interpolation v + t*(u-v).
func (v V3) Lerp(u V3, t float64) V3 {
	return V3{
		v.X + t*(u.X-v.X),
		v.Y + t*(u.Y-v.Y),
		v.Z + t*(u.Z-v.Z),
	}
}

// Min returns the component-wise minimum of v and u.
func (v V3) Min(u V3) V3 {
	return V3{math.Min(v.X, u.X), math.Min(v.Y, u.Y), math.Min(v.Z, u.Z)}
}

// Max returns the component-wise maximum of v and u.
func (v V3) Max(u V3) V3 {
	return V3{math.Max(v.X, u.X), math.Max(v.Y, u.Y), math.Max(v.Z, u.Z)}
}

// MaxComp returns the largest component of v.
func (v V3) MaxComp() float64 { return math.Max(v.X, math.Max(v.Y, v.Z)) }

// MinComp returns the smallest component of v.
func (v V3) MinComp() float64 { return math.Min(v.X, math.Min(v.Y, v.Z)) }

// Axis returns component i of v (0=X, 1=Y, 2=Z).
func (v V3) Axis(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// Clamp returns v with every component clamped to [lo, hi].
func (v V3) Clamp(lo, hi float64) V3 {
	return V3{clamp(v.X, lo, hi), clamp(v.Y, lo, hi), clamp(v.Z, lo, hi)}
}

// IsFinite reports whether all components are finite (no NaN or Inf).
func (v V3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
