package vec

import "math"

// AABB is an axis-aligned bounding box defined by its inclusive Min and Max
// corners. The zero value is not a valid box; use EmptyAABB to start an
// accumulation.
type AABB struct {
	Min, Max V3
}

// EmptyAABB returns a box that contains nothing: Min at +Inf and Max at
// -Inf, so the first Extend produces a point box.
func EmptyAABB() AABB {
	return AABB{
		Min: Splat(math.Inf(1)),
		Max: Splat(math.Inf(-1)),
	}
}

// NewAABB returns the smallest box containing both corners, regardless of
// their ordering.
func NewAABB(a, b V3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// IsEmpty reports whether the box contains no points (any Min component
// exceeds the corresponding Max).
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Extend returns the box grown to include point p.
func (b AABB) Extend(p V3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Expand returns the box grown by r in every direction.
func (b AABB) Expand(r float64) AABB {
	d := Splat(r)
	return AABB{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}

// Center returns the centroid of the box.
func (b AABB) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the edge lengths of the box.
func (b AABB) Size() V3 { return b.Max.Sub(b.Min) }

// Diagonal returns the length of the box diagonal.
func (b AABB) Diagonal() float64 { return b.Size().Len() }

// Contains reports whether point p lies inside or on the boundary of b.
func (b AABB) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Overlaps reports whether b and o share any volume (touching counts).
func (b AABB) Overlaps(o AABB) bool {
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// LongestAxis returns the index (0, 1, 2) of the box's longest edge.
func (b AABB) LongestAxis() int {
	s := b.Size()
	if s.X >= s.Y && s.X >= s.Z {
		return 0
	}
	if s.Y >= s.Z {
		return 1
	}
	return 2
}

// IntersectRay computes the parametric interval [t0, t1] where the ray
// origin + t*dir overlaps the box, using the slab method with
// precomputed inverse direction. It returns ok=false when the ray misses.
// The interval is clamped to [tMin, tMax].
func (b AABB) IntersectRay(origin, invDir V3, tMin, tMax float64) (t0, t1 float64, ok bool) {
	t0, t1 = tMin, tMax
	for axis := 0; axis < 3; axis++ {
		inv := invDir.Axis(axis)
		o := origin.Axis(axis)
		tNear := (b.Min.Axis(axis) - o) * inv
		tFar := (b.Max.Axis(axis) - o) * inv
		if tNear > tFar {
			tNear, tFar = tFar, tNear
		}
		if tNear > t0 {
			t0 = tNear
		}
		if tFar < t1 {
			t1 = tFar
		}
		if t0 > t1 {
			return 0, 0, false
		}
	}
	return t0, t1, true
}
