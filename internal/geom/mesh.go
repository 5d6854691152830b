// Package geom implements ETH's geometry-based visualization pipeline —
// the paper's "traditional triangle-based operations" (Figure 5): a VTK
// points mapper, the Gaussian splatter, and contouring filters (isosurface
// and slicing plane) that extract triangle meshes which are then handed to
// the software rasterizer. The cost structure matches VTK's geometry
// pipeline: extraction iterates every input cell/point, and rendering cost
// is proportional to the geometry generated (§IV-C).
package geom

import (
	"sync"

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
	m.Verts, m.Scalars, m.Tris, m.Normals = m.Verts[:0], m.Scalars[:0], m.Tris[:0], m.Normals[:0]
	meshPool.Put(m)
}

// TriangleCount returns the number of triangles.
func (m *Mesh) TriangleCount() int { return len(m.Tris) }

// VertexCount returns the number of vertices.
func (m *Mesh) VertexCount() int { return len(m.Verts) }

// Bounds returns the bounding box of all vertices.
func (m *Mesh) Bounds() vec.AABB {
	b := vec.EmptyAABB()
	for _, v := range m.Verts {
		b = b.Extend(v)
	}
	return b
}

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
