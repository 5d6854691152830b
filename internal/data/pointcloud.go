package data

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ascr-ecx/eth/internal/vec"
)

// PointCloud is a particle dataset in structure-of-arrays layout, matching
// the HACC payload the paper describes: per-particle ID, position vector,
// and velocity vector, plus any number of derived scalar fields. SoA keeps
// the hot loops (transform-all-points, BVH build) cache friendly.
type PointCloud struct {
	// IDs are the simulation-assigned particle identifiers.
	IDs []int64
	// X, Y, Z are the particle positions.
	X, Y, Z []float32
	// VX, VY, VZ are the particle velocities.
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

// Bytes implements Dataset.
func (p *PointCloud) Bytes() int64 {
	n := int64(p.Count())
	b := n * (8 + 6*4) // id + 6 float32
	for _, f := range p.Fields {
		b += int64(len(f.Values)) * 4
	}
	return b
}

// Pos returns the position of particle i.
func (p *PointCloud) Pos(i int) vec.V3 {
	return vec.V3{X: float64(p.X[i]), Y: float64(p.Y[i]), Z: float64(p.Z[i])}
}

// Vel returns the velocity of particle i.
func (p *PointCloud) Vel(i int) vec.V3 {
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

// Bounds implements Dataset. The box is cached until positions change via
// SetPos; callers that mutate X/Y/Z slices directly should call
// InvalidateBounds.
func (p *PointCloud) Bounds() vec.AABB {
	p.boundsMu.Lock()
	defer p.boundsMu.Unlock()
	if p.boundsSet {
		return p.bounds
	}
	b := vec.EmptyAABB()
	for i := range p.X {
		b = b.Extend(p.Pos(i))
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
// indices, with all fields carried over. Indices may repeat.
func (p *PointCloud) Select(indices []int) *PointCloud {
	return p.SelectInto(new(PointCloud), indices)
}

// SelectInto is Select into dst, which it returns: dst's arrays are
// overwritten in place, and one is reallocated, at its exact new length,
// only when it is too short. dst's bounds are invalidated, so its
// Generation advances with every refill. dst must not be p.
func (p *PointCloud) SelectInto(dst *PointCloud, indices []int) *PointCloud {
	n := len(indices)
	dst.IDs = Fit(dst.IDs, n)
	dst.X = selectInto(Fit(dst.X, n), p.X, indices)
	dst.Y = selectInto(Fit(dst.Y, n), p.Y, indices)
	dst.Z = selectInto(Fit(dst.Z, n), p.Z, indices)
	dst.VX = selectInto(Fit(dst.VX, n), p.VX, indices)
	dst.VY = selectInto(Fit(dst.VY, n), p.VY, indices)
	dst.VZ = selectInto(Fit(dst.VZ, n), p.VZ, indices)
	for j, i := range indices {
		dst.IDs[j] = p.IDs[i]
	}
	dst.Fields = Fit(dst.Fields, len(p.Fields))
	for k, f := range p.Fields {
		dst.Fields[k].Name = f.Name
		dst.Fields[k].Values = selectInto(Fit(dst.Fields[k].Values, n), f.Values, indices)
	}
	dst.InvalidateBounds()
	return dst
}

// selectInto writes src[indices[j]] to dst[j] and returns dst.
func selectInto(dst, src []float32, indices []int) []float32 {
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
	sort.Slice(idx, func(a, b int) bool { return coord[idx[a]] < coord[idx[b]] })
	return idx
}

// SpeedField computes |velocity| per particle and attaches it as field
// "speed", returning the values. This is the scalar the paper's HACC
// renderings color by.
func (p *PointCloud) SpeedField() []float32 {
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
