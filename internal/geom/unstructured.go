package geom

import (
	"fmt"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Contouring for unstructured (tetrahedral) meshes — the §VII extension
// domain. Marching tetrahedra applies directly: no hexahedral
// decomposition step is needed, each cell is contoured independently.

// IsosurfaceUnstructured extracts the isoValue contour of the named
// per-vertex field over a tetrahedral mesh.
func IsosurfaceUnstructured(u *data.UnstructuredGrid, fieldName string, isoValue float32) (*Mesh, error) {
	f, err := u.Field(fieldName)
	if err != nil {
		return nil, err
	}
	value := func(v int32) float32 { return f.Values[v] }
	scalar := func(p vec.V3) float32 { return isoValue }
	return contourUnstructured(u, value, isoValue, scalar), nil
}

// SlicePlaneUnstructured extracts the plane cross-section of a
// tetrahedral mesh, colored by the named field (interpolated
// barycentrically within each cut cell via the implicit function).
func SlicePlaneUnstructured(u *data.UnstructuredGrid, fieldName string, point, normal vec.V3) (*Mesh, error) {
	f, err := u.Field(fieldName)
	if err != nil {
		return nil, err
	}
	n := normal.Norm()
	if n == (vec.V3{}) {
		return nil, fmt.Errorf("geom: slice plane normal is zero")
	}
	value := func(v int32) float32 {
		return float32(u.Points[v].Sub(point).Dot(n))
	}
	// Color by nearest-vertex field value at emitted positions: find the
	// enclosing tet is overkill for a slice; per-cell interpolation below
	// uses the vertex scalars directly.
	return contourUnstructuredInterp(u, value, 0, f), nil
}

// contourUnstructured contours every tetrahedron of u at iso, with a
// position-based output scalar.
func contourUnstructured(u *data.UnstructuredGrid, value func(v int32) float32, iso float32, scalar func(p vec.V3) float32) *Mesh {
	return contourUnstructuredImpl(u, value, iso, func(tet [4]int32, p vec.V3) float32 {
		return scalar(p)
	})
}

// contourUnstructuredInterp contours u and colors each emitted vertex by
// interpolating field f within the cut cell (inverse-distance weights to
// the cell's vertices, exact at vertices and smooth inside).
func contourUnstructuredInterp(u *data.UnstructuredGrid, value func(v int32) float32, iso float32, f *data.Field) *Mesh {
	return contourUnstructuredImpl(u, value, iso, func(tet [4]int32, p vec.V3) float32 {
		var wSum, vSum float64
		for _, vi := range tet {
			d := p.Sub(u.Points[vi]).Len()
			w := 1 / (d + 1e-12)
			wSum += w
			vSum += w * float64(f.Values[vi])
		}
		return float32(vSum / wSum)
	})
}

func contourUnstructuredImpl(u *data.UnstructuredGrid, value func(v int32) float32, iso float32, scalar func(tet [4]int32, p vec.V3) float32) *Mesh {
	cells := u.Cells()
	if cells == 0 {
		return &Mesh{}
	}
	// Parallel over cell chunks, each worker filling a private mesh.
	const chunk = 4096
	chunks := (cells + chunk - 1) / chunk
	parts := make([]*Mesh, chunks)
	par.For(chunks, 0, func(ci int) {
		m := &Mesh{}
		lo := ci * chunk
		hi := lo + chunk
		if hi > cells {
			hi = cells
		}
		for t := lo; t < hi; t++ {
			tet := u.Tets[t]
			marchTetIndexed(m, u, tet, value, iso, scalar)
		}
		parts[ci] = m
	})
	out := &Mesh{}
	for _, p := range parts {
		out.Append(p)
	}
	return out
}

// marchTetIndexed contours one tetrahedron given per-vertex values,
// appending 0, 1, or 2 triangles as triangle soup.
func marchTetIndexed(m *Mesh, u *data.UnstructuredGrid, tet [4]int32, value func(v int32) float32, iso float32, scalar func(tet [4]int32, p vec.V3) float32) {
	var vals [4]float32
	var mask uint8
	for i, v := range tet {
		vals[i] = value(v)
		mask |= bit(vals[i] >= iso) << i
	}
	crossing := &tetCrossings[mask]
	if crossing.n == 0 {
		return
	}
	var points [4]vec.V3
	var scalars [4]float32
	for e, edge := range crossing.edges[:crossing.n] {
		a, b := edge[0], edge[1]
		points[e] = u.Points[tet[a]].Lerp(u.Points[tet[b]], edgeT(vals[a], vals[b], iso))
		scalars[e] = scalar(tet, points[e])
	}
	emit := func(e0, e1, e2 int) {
		base := int32(len(m.Verts))
		m.Verts = append(m.Verts, points[e0], points[e1], points[e2])
		m.Scalars = append(m.Scalars, scalars[e0], scalars[e1], scalars[e2])
		m.Tris = append(m.Tris, [3]int32{base, base + 1, base + 2})
	}
	if crossing.n == 3 {
		emit(0, 1, 2)
	} else {
		emit(0, 1, 3)
		emit(0, 3, 2)
	}
}
