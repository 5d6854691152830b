// Package geom implements ETH's geometry-based visualization pipeline —
// the paper's "traditional triangle-based operations" (Figure 5): a VTK
// points mapper, the Gaussian splatter, and contouring filters (isosurface
// and slicing plane) that extract triangle meshes which are then handed to
// the software rasterizer. The cost structure matches VTK's geometry
// pipeline: extraction iterates every input cell/point, and rendering cost
// is proportional to the geometry generated (§IV-C).
package geom

import (
	"math/bits"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Mesh is an indexed triangle mesh with one scalar per vertex (used for
// colormapping) produced by the extraction filters.
//
// An isosurface mesh is shaded smooth (Gouraud): it keeps the grid and
// field it was contoured from, and its vertex normals are the field's
// gradient there (VTK's normals filter), computed when DrawMesh needs
// them (see VertexNormal). The grid and field must therefore not change
// between extraction and drawing. Any other mesh, including one built
// from its exported slices, is shaded flat with per-face geometric
// normals.
type Mesh struct {
	Verts   []vec.V3
	Scalars []float32
	Tris    [][3]int32

	// grid and field are what a smooth mesh's normals are read from;
	// both are nil for a flat one.
	grid  *data.StructuredGrid
	field *data.Field
}

// reset empties m, keeping its slices' capacity, and makes it flat.
func (m *Mesh) reset() {
	m.Verts, m.Scalars, m.Tris = m.Verts[:0], m.Scalars[:0], m.Tris[:0]
	m.grid, m.field = nil, nil
}

// Scratch is the memory one renderer keeps from call to call: the mesh
// its extraction fills, the edge cache and vertex classes its contourer
// works in (with a mesh and buffers of their own for the contour workers
// after the first), a slice's plane distances, the screen vertices, keep
// and shaded flags and triangle list DrawMesh hands the rasterizer and
// the bins it draws them through on more than one worker. Its slices only
// grow, so a renderer that owns one allocates only for a surface larger
// than every one it drew before. The package-level Isosurface and
// DrawMesh each run on a fresh Scratch. The zero value is ready to use; a
// Scratch is not safe for concurrent use.
type Scratch struct {
	mesh         Mesh
	contour      contourBuffers
	helpers      []helper
	dist         []float32
	verts        []raster.Vertex
	keep, shaded []bool
	tris         [][3]int32
	bins         raster.Bins
}

// resize returns s with length n and unspecified contents. It
// reallocates only when n exceeds s's capacity, and then to the next
// power of two, so a buffer that follows a growing surface reallocates
// once per doubling, not at every new largest surface as data.Fit's
// exact length would (on blast-iso-ranks that doubled the bytes a step
// allocates).
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = make([]T, n, pow2(n))
	}
	return s[:n]
}

// reserve makes room in m for nv more vertices, with their scalars, and
// nt more triangles, growing each slice that lacks it as resize does;
// append grows a large slice by a quarter.
func (m *Mesh) reserve(nv, nt int) {
	m.Verts = reserve(m.Verts, nv)
	m.Scalars = reserve(m.Scalars, nv)
	m.Tris = reserve(m.Tris, nt)
}

// reserve returns s with room for n more elements: s itself when it has
// it, else a copy whose capacity is the next power of two.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, pow2(len(s)+n)), s...)
}

// pow2 is the smallest power of two not below n.
func pow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// TriangleCount returns the number of triangles.
func (m *Mesh) TriangleCount() int { return len(m.Tris) }

// Append concatenates other's vertices, scalars and triangles onto m,
// offsetting indices; m keeps its own grid and field.
func (m *Mesh) Append(other *Mesh) {
	base := int32(len(m.Verts))
	m.Verts = append(m.Verts, other.Verts...)
	m.Scalars = append(m.Scalars, other.Scalars...)
	for _, t := range other.Tris {
		m.Tris = append(m.Tris, [3]int32{t[0] + base, t[1] + base, t[2] + base})
	}
}

// VertexNormal returns the unit normal of a smooth mesh at vertex i: the
// normalized gradient of the contoured field there, read from the grid
// now. It is the one place a smooth mesh's normals come from.
func (m *Mesh) VertexNormal(i int) vec.V3 {
	return m.grid.Gradient(m.field, m.Verts[i]).Norm()
}

// Normal returns the unit geometric normal of triangle i (zero vector for
// degenerate triangles).
func (m *Mesh) Normal(i int) vec.V3 {
	t := m.Tris[i]
	a := m.Verts[t[0]]
	b := m.Verts[t[1]]
	c := m.Verts[t[2]]
	return b.Sub(a).Cross(c.Sub(a)).Norm()
}
