package data

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ascr-ecx/eth/internal/vec"
)

// UnstructuredGrid is a tetrahedral mesh with per-vertex scalar fields —
// the "other domains such as unstructured grid" extension the paper's
// discussion names as the first thing a user would add (§VII). Vertices
// are shared between cells; Tets holds four vertex indices per cell.
type UnstructuredGrid struct {
	// Points are the vertex positions.
	Points []vec.V3
	// Tets are the tetrahedral cells, four vertex indices each.
	Tets [][4]int32
	// Fields holds named per-vertex scalars.
	Fields []Field

	// boundsMu guards the lazy bounds cache: a dataset shared across rank
	// proxies is read concurrently (e.g. Partition in every pair).
	boundsMu  sync.Mutex
	bounds    vec.AABB // guarded by boundsMu
	boundsSet bool     // guarded by boundsMu
}

var _ Dataset = (*UnstructuredGrid)(nil)

// Kind implements Dataset.
func (u *UnstructuredGrid) Kind() Kind { return KindUnstructuredGrid }

// Count implements Dataset; it returns the vertex count.
func (u *UnstructuredGrid) Count() int { return len(u.Points) }

// Cells returns the tetrahedron count.
func (u *UnstructuredGrid) Cells() int { return len(u.Tets) }

// Bytes implements Dataset.
func (u *UnstructuredGrid) Bytes() int64 {
	b := int64(len(u.Points))*24 + int64(len(u.Tets))*16
	for _, f := range u.Fields {
		b += int64(len(f.Values)) * 4
	}
	return b
}

// Bounds implements Dataset.
func (u *UnstructuredGrid) Bounds() vec.AABB {
	u.boundsMu.Lock()
	defer u.boundsMu.Unlock()
	if u.boundsSet {
		return u.bounds
	}
	b := vec.EmptyAABB()
	for _, p := range u.Points {
		b = b.Extend(p)
	}
	u.bounds = b
	u.boundsSet = true
	return b
}

// InvalidateBounds drops the cached bounding box after direct mutation.
func (u *UnstructuredGrid) InvalidateBounds() {
	u.boundsMu.Lock()
	u.boundsSet = false
	u.boundsMu.Unlock()
}

// Field returns the named field, or ErrFieldMissing.
func (u *UnstructuredGrid) Field(name string) (*Field, error) {
	for i := range u.Fields {
		if u.Fields[i].Name == name {
			return &u.Fields[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrFieldMissing, name)
}

// CellCentroid returns the centroid of tetrahedron t.
func (u *UnstructuredGrid) CellCentroid(t int) vec.V3 {
	tet := u.Tets[t]
	return u.Points[tet[0]].
		Add(u.Points[tet[1]]).
		Add(u.Points[tet[2]]).
		Add(u.Points[tet[3]]).Scale(0.25)
}

// Partition implements Dataset: cells are sorted by centroid along the
// longest bounds axis and cut into equal-count slabs; each piece gets the
// vertices its cells reference (re-indexed), duplicating shared boundary
// vertices — the standard element-partitioning of unstructured meshes.
func (u *UnstructuredGrid) Partition(n int) []Dataset {
	if n <= 1 || u.Cells() == 0 {
		return []Dataset{u}
	}
	if n > u.Cells() {
		n = u.Cells()
	}
	axis := u.Bounds().LongestAxis()
	order := make([]int, u.Cells())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return u.CellCentroid(order[a]).Axis(axis) < u.CellCentroid(order[b]).Axis(axis)
	})
	pieces := make([]Dataset, 0, n)
	for k := 0; k < n; k++ {
		lo := k * len(order) / n
		hi := (k + 1) * len(order) / n
		pieces = append(pieces, u.extract(order[lo:hi]))
	}
	return pieces
}

// extract builds a self-contained sub-mesh from the given cell indices.
func (u *UnstructuredGrid) extract(cells []int) *UnstructuredGrid {
	remap := make(map[int32]int32)
	out := &UnstructuredGrid{}
	for _, c := range cells {
		var tet [4]int32
		for v := 0; v < 4; v++ {
			old := u.Tets[c][v]
			nw, ok := remap[old]
			if !ok {
				nw = int32(len(out.Points))
				remap[old] = nw
				out.Points = append(out.Points, u.Points[old])
			}
			tet[v] = nw
		}
		out.Tets = append(out.Tets, tet)
	}
	for _, f := range u.Fields {
		vals := make([]float32, len(out.Points))
		for old, nw := range remap {
			vals[nw] = f.Values[old]
		}
		out.Fields = append(out.Fields, Field{Name: f.Name, Values: vals})
	}
	return out
}

// Tetrahedralize converts a structured grid to an unstructured mesh by
// splitting each hexahedral cell into six tetrahedra (the same
// decomposition the contouring filters use), carrying all fields over.
// It is the standard way to obtain unstructured test data from the
// structured generators.
func Tetrahedralize(g *StructuredGrid) *UnstructuredGrid {
	u := &UnstructuredGrid{
		Points: make([]vec.V3, g.Count()),
	}
	idx := 0
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				u.Points[idx] = g.VertexPos(i, j, k)
				idx++
			}
		}
	}
	// Six-tet decomposition of each cube around the 0-7 diagonal
	// (corner numbering: bit0=+x, bit1=+y, bit2=+z).
	tets := [6][4]int{
		{0, 5, 1, 3}, {0, 5, 3, 7}, {0, 5, 7, 4},
		{0, 3, 2, 7}, {0, 2, 6, 7}, {0, 6, 4, 7},
	}
	corner := func(i, j, k, c int) int32 {
		return int32(g.Index(i+(c&1), j+(c>>1&1), k+(c>>2&1)))
	}
	for k := 0; k < g.NZ-1; k++ {
		for j := 0; j < g.NY-1; j++ {
			for i := 0; i < g.NX-1; i++ {
				for _, t := range tets {
					u.Tets = append(u.Tets, [4]int32{
						corner(i, j, k, t[0]),
						corner(i, j, k, t[1]),
						corner(i, j, k, t[2]),
						corner(i, j, k, t[3]),
					})
				}
			}
		}
	}
	for _, f := range g.Fields {
		vals := make([]float32, len(f.Values))
		copy(vals, f.Values)
		u.Fields = append(u.Fields, Field{Name: f.Name, Values: vals})
	}
	return u
}
