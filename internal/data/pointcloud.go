package data

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/ascr-ecx/eth/internal/vec"
)

// PointCloud is a particle dataset in structure-of-arrays layout, matching
// the HACC payload the paper describes: per-particle ID, position vector,
// and velocity vector, plus any number of derived scalar fields. SoA keeps
// the hot loops (transform-all-points, BVH build) cache friendly.
//
// Positions are always present; IDs and velocities may be absent (empty),
// as on a cloud narrowed to the field a renderer reads. An array that is
// present holds one value per particle.
type PointCloud struct {
	// IDs are the simulation-assigned particle identifiers, or empty.
	IDs []int64
	// X, Y, Z are the particle positions.
	X, Y, Z []float32
	// VX, VY, VZ are the particle velocities, or all three empty.
	VX, VY, VZ []float32
	// Fields holds named per-particle scalars (e.g. speed, mass).
	Fields []Field

	// boundsMu guards the lazy bounds cache: a dataset shared across rank
	// proxies is read concurrently (e.g. Partition in every pair).
	boundsMu  sync.Mutex
	bounds    vec.AABB // guarded by boundsMu
	boundsSet bool     // guarded by boundsMu
	gen       uint64   // guarded by boundsMu; bumped on invalidation
}

var _ Dataset = (*PointCloud)(nil)

// NewPointCloud allocates a cloud with capacity for n particles. All
// arrays are allocated; values are zero.
func NewPointCloud(n int) *PointCloud {
	return &PointCloud{
		IDs: make([]int64, n),
		X:   make([]float32, n), Y: make([]float32, n), Z: make([]float32, n),
		VX: make([]float32, n), VY: make([]float32, n), VZ: make([]float32, n),
	}
}

// Kind implements Dataset.
func (p *PointCloud) Kind() Kind { return KindPointCloud }

// Count implements Dataset.
func (p *PointCloud) Count() int { return len(p.X) }

// Bytes implements Dataset. It counts only the arrays the cloud carries.
func (p *PointCloud) Bytes() int64 {
	b := 8 * int64(len(p.IDs))
	for _, arr := range [...][]float32{p.X, p.Y, p.Z, p.VX, p.VY, p.VZ} {
		b += 4 * int64(len(arr))
	}
	for _, f := range p.Fields {
		b += 4 * int64(len(f.Values))
	}
	return b
}

// HasVelocities reports whether the cloud carries velocities.
func (p *PointCloud) HasVelocities() bool { return len(p.VX) != 0 }

// Pos returns the position of particle i.
func (p *PointCloud) Pos(i int) vec.V3 {
	return vec.V3{X: float64(p.X[i]), Y: float64(p.Y[i]), Z: float64(p.Z[i])}
}

// Vel returns the velocity of particle i, zero when the cloud carries no
// velocities.
func (p *PointCloud) Vel(i int) vec.V3 {
	if !p.HasVelocities() {
		return vec.V3{}
	}
	return vec.V3{X: float64(p.VX[i]), Y: float64(p.VY[i]), Z: float64(p.VZ[i])}
}

// SetPos sets the position of particle i.
func (p *PointCloud) SetPos(i int, v vec.V3) {
	p.X[i], p.Y[i], p.Z[i] = float32(v.X), float32(v.Y), float32(v.Z)
	p.InvalidateBounds()
}

// SetVel sets the velocity of particle i.
func (p *PointCloud) SetVel(i int, v vec.V3) {
	p.VX[i], p.VY[i], p.VZ[i] = float32(v.X), float32(v.Y), float32(v.Z)
}

// Field returns the named field, or ErrFieldMissing.
func (p *PointCloud) Field(name string) (*Field, error) {
	for i := range p.Fields {
		if p.Fields[i].Name == name {
			return &p.Fields[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrFieldMissing, name)
}

// Bounds implements Dataset. The box is one float32 pass over X, Y and Z
// with the six extrema in registers, widened to float64 once at the end
// (exact and monotone), so an empty cloud's box is vec.EmptyAABB(). The
// builtin min and max keep math.Min's and math.Max's IEEE rules (a NaN
// wins, min(-0, +0) is -0), so the box is the one math.Min and math.Max
// grow point by point, with two exceptions: a NaN may come back with
// another payload, and an axis that holds a NaN is NaN even where it
// also holds the infinity math.Min or math.Max would let win.
// The box is cached until positions change via SetPos; callers that
// mutate X/Y/Z slices directly should call InvalidateBounds.
func (p *PointCloud) Bounds() vec.AABB {
	p.boundsMu.Lock()
	defer p.boundsMu.Unlock()
	if p.boundsSet {
		return p.bounds
	}
	inf := float32(math.Inf(1))
	x0, y0, z0 := inf, inf, inf
	x1, y1, z1 := -inf, -inf, -inf
	xs, ys, zs := p.X, p.Y[:len(p.X)], p.Z[:len(p.X)]
	for i, x := range xs {
		y, z := ys[i], zs[i]
		x0, x1 = min(x0, x), max(x1, x)
		y0, y1 = min(y0, y), max(y1, y)
		z0, z1 = min(z0, z), max(z1, z)
	}
	b := vec.AABB{
		Min: vec.V3{X: float64(x0), Y: float64(y0), Z: float64(z0)},
		Max: vec.V3{X: float64(x1), Y: float64(y1), Z: float64(z1)},
	}
	p.bounds = b
	p.boundsSet = true
	return b
}

// InvalidateBounds drops the cached bounding box and advances the
// cloud's generation.
func (p *PointCloud) InvalidateBounds() {
	p.boundsMu.Lock()
	p.boundsSet = false
	p.gen++
	p.boundsMu.Unlock()
}

// Generation distinguishes successive contents of one PointCloud object:
// it advances every time InvalidateBounds reports a mutation. Caches
// keyed by dataset pointer (e.g. a renderer's BVH) must also compare
// generations, because buffer-reusing decoders rewrite the same object in
// place for every step.
func (p *PointCloud) Generation() uint64 {
	p.boundsMu.Lock()
	defer p.boundsMu.Unlock()
	return p.gen
}

// Select returns a new cloud containing the particles at the given
// indices, with all fields carried over and absent arrays left absent.
// Indices may repeat.
func (p *PointCloud) Select(indices []int) *PointCloud {
	return p.SelectInto(new(PointCloud), indices)
}

// SelectInto is Select into dst, which it returns: dst's arrays are
// overwritten in place, and one is reallocated, at its exact new length,
// only when it is too short. An array p lacks is left empty in dst, its
// capacity kept. dst's bounds are invalidated, so its Generation advances
// with every refill. dst must not be p.
func (p *PointCloud) SelectInto(dst *PointCloud, indices []int) *PointCloud {
	dst.IDs = selectInto(dst.IDs, p.IDs, indices)
	dst.X = selectInto(dst.X, p.X, indices)
	dst.Y = selectInto(dst.Y, p.Y, indices)
	dst.Z = selectInto(dst.Z, p.Z, indices)
	dst.VX = selectInto(dst.VX, p.VX, indices)
	dst.VY = selectInto(dst.VY, p.VY, indices)
	dst.VZ = selectInto(dst.VZ, p.VZ, indices)
	dst.Fields = Fit(dst.Fields, len(p.Fields))
	for k, f := range p.Fields {
		dst.Fields[k].Name = f.Name
		dst.Fields[k].Values = selectInto(dst.Fields[k].Values, f.Values, indices)
	}
	dst.InvalidateBounds()
	return dst
}

// selectInto writes src[indices[j]] to dst[j], dst fitted to the indices,
// and returns dst; an empty src is absent and yields dst emptied.
func selectInto[T any](dst, src []T, indices []int) []T {
	if len(src) == 0 {
		return dst[:0]
	}
	dst = Fit(dst, len(indices))
	for j, i := range indices {
		dst[j] = src[i]
	}
	return dst
}

// Fit returns s with length n, reallocated at exactly n only when its
// capacity is short: the growth rule of an array sized by a dataset's
// element count that its owner refills in place every step (a sample, a
// piece, a renderer's per-particle colours). Its contents are
// unspecified. Geometry extracted from a grid grows by powers of two
// instead (geom's resize): a surface's size changes from step to step.
func Fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Partition implements Dataset. Particles are split into n spatial slabs
// along the longest axis of the bounding box, mirroring how a simulation
// decomposes its domain across ranks. Each returned piece is a fresh
// PointCloud (no sharing), so pieces can be shipped independently.
func (p *PointCloud) Partition(n int) []Dataset {
	if n <= 1 {
		return []Dataset{p}
	}
	idx := p.splitOrder(nil)
	pieces := make([]Dataset, n)
	for k := 0; k < n; k++ {
		pieces[k] = p.Select(idx[k*len(idx)/n : (k+1)*len(idx)/n])
	}
	return pieces
}

// splitOrder returns the particle indices sorted by the coordinate along
// the longest axis of the bounding box, in idx's array when it is long
// enough. Cutting it into n equal-count runs gives the n slabs: equal
// count, not equal width, matches the load balance a production particle
// code maintains.
func (p *PointCloud) splitOrder(idx []int) []int {
	coord := [3][]float32{p.X, p.Y, p.Z}[p.Bounds().LongestAxis()]
	idx = Fit(idx, p.Count())
	for i := range idx {
		idx[i] = i
	}
	// "<" as sort.Slice compares, so the order, ties and NaNs included,
	// is sort.Slice's (TestSplitOrderMatchesSortSlice); unlike it,
	// SortFunc allocates nothing.
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case coord[a] < coord[b]:
			return -1
		case coord[b] < coord[a]:
			return 1
		}
		return 0
	})
	return idx
}

// SpeedField computes |velocity| per particle and attaches it as field
// "speed", returning the values. This is the scalar the paper's HACC
// renderings color by. A non-empty cloud without velocities keeps the
// speed field it carries, whose values it returns (nil when it has
// none); an empty cloud, which never has velocities, gets an empty one.
func (p *PointCloud) SpeedField() []float32 {
	if !p.HasVelocities() && p.Count() != 0 {
		if f, err := p.Field("speed"); err == nil {
			return f.Values
		}
		return nil
	}
	vals := make([]float32, p.Count())
	for i := range vals {
		v := p.Vel(i)
		vals[i] = float32(v.Len())
	}
	// Replace existing speed field if present.
	for i := range p.Fields {
		if p.Fields[i].Name == "speed" {
			p.Fields[i].Values = vals
			return vals
		}
	}
	p.Fields = append(p.Fields, Field{Name: "speed", Values: vals})
	return vals
}
