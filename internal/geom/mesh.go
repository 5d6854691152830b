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
	"sync"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Mesh is an indexed triangle mesh with one scalar per vertex (used for
// colormapping) produced by the extraction filters.
type Mesh struct {
	Verts   []vec.V3
	Scalars []float32
	Tris    [][3]int32
	// Normals, when non-empty, holds one unit normal per vertex for
	// smooth (Gouraud) shading — the analog of VTK's normals filter.
	// Empty means flat shading with per-face geometric normals.
	Normals []vec.V3
}

// meshPool recycles extraction results with their slices' capacity, so a
// steady sequence of similar steps builds its meshes without allocating.
var meshPool sync.Pool

// getMesh returns an empty mesh, with spare capacity when one is pooled.
func getMesh() *Mesh {
	if m, _ := meshPool.Get().(*Mesh); m != nil {
		return m
	}
	return &Mesh{}
}

// PutMesh returns a mesh obtained from Isosurface or SlicePlane for reuse
// by a later extraction. It is optional, like PutSprites: a mesh never
// returned is ordinary garbage. m and its slices must not be used
// afterwards.
func PutMesh(m *Mesh) {
	m.reset()
	meshPool.Put(m)
}

// reset empties m, keeping its slices' capacity.
func (m *Mesh) reset() {
	m.Verts, m.Scalars, m.Tris, m.Normals = m.Verts[:0], m.Scalars[:0], m.Tris[:0], m.Normals[:0]
}

// Scratch is the memory one extract-and-draw renderer keeps from call to
// call: the mesh its extraction fills and the screen vertices, keep flags
// and triangle list DrawMesh hands the rasterizer. Its slices only grow,
// so a renderer that owns one allocates only for a surface larger than
// every one it drew before. The package-level functions draw on pooled
// memory instead, which the collector may empty and which every renderer
// in the process shares, so what they allocate depends on when the
// collector ran and how renderers on other goroutines interleaved.
// The zero value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	mesh  Mesh
	verts []raster.Vertex
	keep  []bool
	tris  [][3]int32
}

// Isosurface is the package's Isosurface into s's mesh, which stays valid
// until s extracts again.
func (s *Scratch) Isosurface(g *data.StructuredGrid, fieldName string, isoValue float32) (*Mesh, error) {
	return isosurface(&s.mesh, g, fieldName, isoValue)
}

// SlicePlane extracts the cross-section of g with the plane through point
// with unit normal, colored by the named field (VTK's slice filter, see
// slicePlane), into s's mesh, which stays valid until s extracts again.
func (s *Scratch) SlicePlane(g *data.StructuredGrid, fieldName string, point, normal vec.V3) (*Mesh, error) {
	return slicePlane(&s.mesh, g, fieldName, point, normal)
}

// DrawMesh is the package's DrawMesh on s's buffers.
func (s *Scratch) DrawMesh(frame *fb.Frame, m *Mesh, cam *camera.Camera, opt ShadeOptions) {
	s.verts, s.keep, s.tris = drawMesh(frame, m, cam, opt, s.verts, s.keep, s.tris)
}

// resize returns s with length n and unspecified contents. It
// reallocates only when n exceeds s's capacity, and then to the next
// power of two (mempool's capacity classes), so a buffer that follows a
// growing surface reallocates once per doubling, not at every new largest
// surface.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = make([]T, n, pow2(n))
	}
	return s[:n]
}

// reserve makes room in m for nv more vertices, with their scalars (and
// normals, once m has had them), and nt more triangles, growing each
// slice that lacks it as resize does; append grows a large slice by a
// quarter.
func (m *Mesh) reserve(nv, nt int) {
	m.Verts = reserve(m.Verts, nv)
	m.Scalars = reserve(m.Scalars, nv)
	if cap(m.Normals) > 0 {
		m.Normals = reserve(m.Normals, nv)
	}
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

// Append concatenates other onto m, offsetting indices.
func (m *Mesh) Append(other *Mesh) {
	base := int32(len(m.Verts))
	m.Verts = append(m.Verts, other.Verts...)
	m.Scalars = append(m.Scalars, other.Scalars...)
	m.Normals = append(m.Normals, other.Normals...)
	for _, t := range other.Tris {
		m.Tris = append(m.Tris, [3]int32{t[0] + base, t[1] + base, t[2] + base})
	}
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
