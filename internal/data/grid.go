package data

import (
	"fmt"

	"github.com/ascr-ecx/eth/internal/vec"
)

// StructuredGrid is a regular (uniform-spacing) volume dataset, the form
// the paper's xRAGE pipeline hands to visualization after AMR data is
// resampled onto a structured grid (§IV-A). Vertex-centred scalars are
// stored in x-fastest order: index = i + NX*(j + NY*k).
type StructuredGrid struct {
	// NX, NY, NZ are vertex counts along each axis (>= 2 for a volume).
	NX, NY, NZ int
	// Origin is the world position of vertex (0,0,0).
	Origin vec.V3
	// Spacing is the world distance between adjacent vertices per axis.
	Spacing vec.V3
	// Fields holds named per-vertex scalar arrays of length NX*NY*NZ.
	Fields []Field
}

var _ Dataset = (*StructuredGrid)(nil)

// NewStructuredGrid allocates a grid with the given vertex counts, unit
// spacing, and origin at zero. Fields start empty.
func NewStructuredGrid(nx, ny, nz int) *StructuredGrid {
	return &StructuredGrid{
		NX: nx, NY: ny, NZ: nz,
		Spacing: vec.Splat(1),
	}
}

// Kind implements Dataset.
func (g *StructuredGrid) Kind() Kind { return KindStructuredGrid }

// Count implements Dataset; it returns the vertex count.
func (g *StructuredGrid) Count() int { return g.NX * g.NY * g.NZ }

// Cells returns the cell count, (NX-1)(NY-1)(NZ-1), which is what
// geometry extraction iterates over.
func (g *StructuredGrid) Cells() int {
	cx, cy, cz := g.NX-1, g.NY-1, g.NZ-1
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cz < 0 {
		cz = 0
	}
	return cx * cy * cz
}

// Bytes implements Dataset.
func (g *StructuredGrid) Bytes() int64 {
	b := int64(0)
	for _, f := range g.Fields {
		b += int64(len(f.Values)) * 4
	}
	return b
}

// Bounds implements Dataset.
func (g *StructuredGrid) Bounds() vec.AABB {
	far := g.Origin.Add(vec.V3{
		X: float64(g.NX-1) * g.Spacing.X,
		Y: float64(g.NY-1) * g.Spacing.Y,
		Z: float64(g.NZ-1) * g.Spacing.Z,
	})
	return vec.NewAABB(g.Origin, far)
}

// Index returns the linear index of vertex (i, j, k).
func (g *StructuredGrid) Index(i, j, k int) int { return i + g.NX*(j+g.NY*k) }

// VertexPos returns the world position of vertex (i, j, k).
func (g *StructuredGrid) VertexPos(i, j, k int) vec.V3 {
	return vec.V3{
		X: g.Origin.X + float64(i)*g.Spacing.X,
		Y: g.Origin.Y + float64(j)*g.Spacing.Y,
		Z: g.Origin.Z + float64(k)*g.Spacing.Z,
	}
}

// Field returns the named field, or ErrFieldMissing.
func (g *StructuredGrid) Field(name string) (*Field, error) {
	for i := range g.Fields {
		if g.Fields[i].Name == name {
			return &g.Fields[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrFieldMissing, name)
}

// AddField attaches a named scalar array of length Count().
func (g *StructuredGrid) AddField(name string, values []float32) error {
	if len(values) != g.Count() {
		return fmt.Errorf("data: field %q has %d values for %d vertices", name, len(values), g.Count())
	}
	g.Fields = append(g.Fields, Field{Name: name, Values: values})
	return nil
}

// FillField allocates a field and fills it by evaluating fn at every
// vertex's world position, in x-fastest order.
func (g *StructuredGrid) FillField(name string, fn func(p vec.V3) float32) *Field {
	vals := make([]float32, g.Count())
	idx := 0
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				vals[idx] = fn(g.VertexPos(i, j, k))
				idx++
			}
		}
	}
	g.Fields = append(g.Fields, Field{Name: name, Values: vals})
	return &g.Fields[len(g.Fields)-1]
}

// Sample trilinearly interpolates the field at world position p. Positions
// outside the grid are clamped to the boundary, which is the behaviour
// ray marchers want at volume edges. It returns the interpolated value.
func (g *StructuredGrid) Sample(f *Field, p vec.V3) float32 {
	i, tx := axisCell(p.X, g.Origin.X, g.Spacing.X, g.NX)
	j, ty := axisCell(p.Y, g.Origin.Y, g.Spacing.Y, g.NY)
	k, tz := axisCell(p.Z, g.Origin.Z, g.Spacing.Z, g.NZ)
	return g.trilinear(f.Values, i, j, k, tx, ty, tz)
}

// axisCell is Sample's lookup along one axis of n vertices from origin o
// at spacing h: the cell holding world coordinate x, clamped to the grid,
// and x's weight within it.
func axisCell(x, o, h float64, n int) (int, float64) {
	// Convert the world coordinate to a continuous vertex coordinate.
	fx := clamp0((x-o)/h, float64(n-1))
	i := int(fx)
	if i > n-2 {
		i = n - 2
	}
	if i < 0 {
		i = 0
	}
	return i, fx - float64(i)
}

// trilinear blends the eight values of cell (i, j, k) at weights tx, ty,
// tz within it.
func (g *StructuredGrid) trilinear(v []float32, i, j, k int, tx, ty, tz float64) float32 {
	base := g.Index(i, j, k)
	sx, sy := 1, g.NX
	sz := g.NX * g.NY
	c000 := float64(v[base])
	c100 := float64(v[base+sx])
	c010 := float64(v[base+sy])
	c110 := float64(v[base+sx+sy])
	c001 := float64(v[base+sz])
	c101 := float64(v[base+sx+sz])
	c011 := float64(v[base+sy+sz])
	c111 := float64(v[base+sx+sy+sz])

	c00 := c000 + tx*(c100-c000)
	c10 := c010 + tx*(c110-c010)
	c01 := c001 + tx*(c101-c001)
	c11 := c011 + tx*(c111-c011)
	c0 := c00 + ty*(c10-c00)
	c1 := c01 + ty*(c11-c01)
	return float32(c0 + tz*(c1-c0))
}

// Gradient estimates the field gradient at world position p by central
// differences of Sample, used for isosurface shading normals.
//
// Each of the six samples moves p along one axis only, so the other two
// axes keep p's own cell and weight: p.Y+0 and p.Y-0 differ at most in the
// sign of a zero, which clamp0 maps to +0. The lookups are made once each —
// three per axis, nine in all instead of eighteen — and the six blends are
// Sample's, so every gradient has the bits six Sample calls give it.
func (g *StructuredGrid) Gradient(f *Field, p vec.V3) vec.V3 {
	hx := g.Spacing.X
	hy := g.Spacing.Y
	hz := g.Spacing.Z
	i, tx := axisCell(p.X, g.Origin.X, hx, g.NX)
	j, ty := axisCell(p.Y, g.Origin.Y, hy, g.NY)
	k, tz := axisCell(p.Z, g.Origin.Z, hz, g.NZ)
	ip, txp := axisCell(p.X+hx, g.Origin.X, hx, g.NX)
	im, txm := axisCell(p.X-hx, g.Origin.X, hx, g.NX)
	jp, typ := axisCell(p.Y+hy, g.Origin.Y, hy, g.NY)
	jm, tym := axisCell(p.Y-hy, g.Origin.Y, hy, g.NY)
	kp, tzp := axisCell(p.Z+hz, g.Origin.Z, hz, g.NZ)
	km, tzm := axisCell(p.Z-hz, g.Origin.Z, hz, g.NZ)
	v := f.Values
	dx := float64(g.trilinear(v, ip, j, k, txp, ty, tz)) - float64(g.trilinear(v, im, j, k, txm, ty, tz))
	dy := float64(g.trilinear(v, i, jp, k, tx, typ, tz)) - float64(g.trilinear(v, i, jm, k, tx, tym, tz))
	dz := float64(g.trilinear(v, i, j, kp, tx, ty, tzp)) - float64(g.trilinear(v, i, j, km, tx, ty, tzm))
	return vec.V3{X: dx / (2 * hx), Y: dy / (2 * hy), Z: dz / (2 * hz)}
}

// Partition implements Dataset. The grid is split into n slabs along its
// longest axis. Adjacent slabs share one vertex plane so that cell-based
// algorithms (marching cubes, slicing) see no gaps at slab boundaries —
// the same ghost-layer convention parallel VTK uses.
func (g *StructuredGrid) Partition(n int) []Dataset {
	axis, cells, n := g.slabs(n)
	if n == 0 {
		return []Dataset{g}
	}
	pieces := make([]Dataset, 0, n)
	for k := 0; k < n; k++ {
		pieces = append(pieces, g.subgrid(axis, k*cells/n, (k+1)*cells/n, nil))
	}
	return pieces
}

// slabs reports how a split into n pieces cuts the grid: the axis, its
// cell layers, and the slab count — at most one per layer, and 0 when
// there is nothing to split and the only piece is the grid itself. Slab k
// spans vertices [k*cells/count, (k+1)*cells/count], sharing its last
// plane with slab k+1.
func (g *StructuredGrid) slabs(n int) (axis, cells, count int) {
	if n <= 1 {
		return 0, 0, 0
	}
	axis = g.Bounds().LongestAxis()
	cells = [3]int{g.NX, g.NY, g.NZ}[axis] - 1
	if cells < 1 {
		return axis, cells, 0
	}
	return axis, cells, min(n, cells)
}

// subgrid copies the vertex range [lo, hi] (inclusive of hi as the shared
// plane) along the given axis into reuse when that grid already has the
// slab's shape, and into a fresh grid otherwise. The copy moves the
// longest contiguous runs the split axis allows: rows for x, one block per
// z-plane for y, a single block for z.
func (g *StructuredGrid) subgrid(axis, lo, hi int, reuse *StructuredGrid) *StructuredGrid {
	dims := [3]int{g.NX, g.NY, g.NZ}
	dims[axis] = hi - lo + 1
	out := reuse
	if !out.shaped(dims, len(g.Fields)) {
		out = NewStructuredGrid(dims[0], dims[1], dims[2])
		for range g.Fields {
			out.Fields = append(out.Fields, Field{Values: make([]float32, out.Count())})
		}
	}
	out.Spacing = g.Spacing
	out.Origin = g.Origin.Add(vec.V3{
		X: g.Spacing.X * float64(lo*boolToInt(axis == 0)),
		Y: g.Spacing.Y * float64(lo*boolToInt(axis == 1)),
		Z: g.Spacing.Z * float64(lo*boolToInt(axis == 2)),
	})
	// A run is what one copy moves; runs start stride apart in the source
	// and back to back in the slab.
	run, stride := out.NX, g.NX
	switch axis {
	case 1:
		run, stride = out.NX*out.NY, g.NX*g.NY
	case 2:
		run, stride = out.Count(), g.Count()
	}
	first := lo * [3]int{1, g.NX, g.NX * g.NY}[axis]
	for i, f := range g.Fields {
		out.Fields[i].Name = f.Name
		dst := out.Fields[i].Values
		for d, s := 0, first; d < len(dst); d, s = d+run, s+stride {
			copy(dst[d:d+run], f.Values[s:s+run])
		}
	}
	return out
}

// shaped reports whether g is a grid of exactly these vertex counts with
// nf full-length fields — one subgrid may overwrite in place. A nil grid
// is not.
func (g *StructuredGrid) shaped(dims [3]int, nf int) bool {
	if g == nil || [3]int{g.NX, g.NY, g.NZ} != dims || len(g.Fields) != nf {
		return false
	}
	for i := range g.Fields {
		if len(g.Fields[i].Values) != g.Count() {
			return false
		}
	}
	return true
}

// Piecer extracts one rank's piece of each step's dataset, recycling the
// arrays of the piece it extracted last. The zero value is ready to use.
type Piecer struct {
	// grid is the last slab this Piecer allocated: the only grid it ever
	// writes into, so a source's own dataset is never overwritten.
	grid *StructuredGrid
}

// Piece returns piece k of ds split n ways — the dataset ds.Partition(n)[k]
// describes — or nil when the split yields no piece k. For a structured
// grid only that slab is copied out, into the grid the previous call
// returned when the shape still matches: a returned piece is valid until
// the next call. Other kinds answer with Partition(n)[k].
func (pc *Piecer) Piece(ds Dataset, n, k int) Dataset {
	g, ok := ds.(*StructuredGrid)
	if !ok {
		pieces := ds.Partition(n)
		if k < 0 || k >= len(pieces) {
			return nil
		}
		return pieces[k]
	}
	axis, cells, count := g.slabs(n)
	if count == 0 && k == 0 {
		return g
	}
	if k < 0 || k >= count {
		return nil
	}
	pc.grid = g.subgrid(axis, k*cells/count, (k+1)*cells/count, pc.grid)
	return pc.grid
}

// Downsample returns a grid with every stride-th vertex along each axis,
// the spatial-sampling operation ETH applies to volumes (§IV-B). The
// spacing grows by the stride so world bounds are approximately
// preserved. stride must be >= 1.
func (g *StructuredGrid) Downsample(stride int) *StructuredGrid {
	if stride <= 1 {
		return g
	}
	nx := (g.NX + stride - 1) / stride
	ny := (g.NY + stride - 1) / stride
	nz := (g.NZ + stride - 1) / stride
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	if nz < 2 {
		nz = 2
	}
	out := NewStructuredGrid(nx, ny, nz)
	out.Origin = g.Origin
	out.Spacing = g.Spacing.Scale(float64(stride))
	for _, f := range g.Fields {
		vals := make([]float32, out.Count())
		idx := 0
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					si := minInt(i*stride, g.NX-1)
					sj := minInt(j*stride, g.NY-1)
					sk := minInt(k*stride, g.NZ-1)
					vals[idx] = f.Values[g.Index(si, sj, sk)]
					idx++
				}
			}
		}
		out.Fields = append(out.Fields, Field{Name: f.Name, Values: vals})
	}
	return out
}

// clamp0 clamps x to [0, hi] for hi >= 0. It returns what
// math.Min(math.Max(x, 0), hi) returns, bit for bit — -0 becomes +0, NaN
// stays NaN — without the calls: Sample runs it three times per lookup.
func clamp0(x, hi float64) float64 {
	if x > hi {
		return hi
	}
	if x <= 0 {
		return 0
	}
	return x
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
