package geom

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/mempool"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Contouring is done by marching tetrahedra: each hexahedral cell is
// decomposed into six tetrahedra and each tetrahedron is contoured
// independently. Compared with VTK's marching cubes this emits roughly 2x
// the triangles but has the identical cost structure — O(cells) scan with
// work proportional to surface-crossing cells — which is what the
// experiments measure; it also needs no 256-entry case table, making the
// implementation verifiable by inspection. The mesh is indexed: a surface
// point is stored once however many triangles meet there (about six), so
// normals, projection and shading downstream are paid per point, not per
// triangle corner. An isosurface's normals are not stored at all: DrawMesh
// computes one only for a vertex a drawn pixel uses (see drawMesh).

// tets enumerates the six tetrahedra of a cube by corner index. Corner
// numbering: bit 0 = +x, bit 1 = +y, bit 2 = +z. All six share corner 0
// and five of them the 0-7 diagonal (see ROADMAP: neighbouring cells do
// not split their shared x face along the same diagonal).
var tets = [6][4]int{
	{0, 5, 1, 3},
	{0, 5, 3, 7},
	{0, 5, 7, 4},
	{0, 3, 2, 7},
	{0, 2, 6, 7},
	{0, 6, 4, 7},
}

// tetCrossing is the contour of one tetrahedron for one inside mask: the
// crossed edges as ordered (from, to) tet-corner pairs. A surface point is
// interpolated from its edge's from corner. n is 0 when the surface
// misses the tet; 3 when one corner is alone on its side, cut off by the
// triangle (e0, e1, e2); and 4 when two corners lie on each side, cut
// apart by a quad drawn as the triangles (e0, e1, e3) and (e0, e3, e2).
type tetCrossing struct {
	n     int
	edges [4][2]uint8
}

// tetCrossings is indexed by the inside mask: bit i set when tet corner i
// is at or above the isovalue. It is the one copy of the marching
// tetrahedra case analysis, shared by the structured and unstructured
// contourers.
var tetCrossings = func() (table [16]tetCrossing) {
	for mask := range table {
		c := &table[mask]
		inside := func(i uint8) bool { return mask>>i&1 == 1 }
		switch count := bits.OnesCount(uint(mask)); count {
		case 1, 3:
			// The isolated corner is the inside one of 1, the outside
			// one of 3; its three edges run to the others in order.
			var alone uint8
			for inside(alone) != (count == 1) {
				alone++
			}
			for i := uint8(0); i < 4; i++ {
				if i != alone {
					c.edges[c.n] = [2]uint8{alone, i}
					c.n++
				}
			}
		case 2:
			// Every edge runs from an inside corner to an outside one.
			var in, out []uint8
			for i := uint8(0); i < 4; i++ {
				if inside(i) {
					in = append(in, i)
				} else {
					out = append(out, i)
				}
			}
			c.n = 4
			c.edges = [4][2]uint8{{in[0], out[0]}, {in[0], out[1]}, {in[1], out[0]}, {in[1], out[1]}}
		}
	}
	return table
}()

// edgeT returns where the iso crossing lies on an edge whose end values
// are va and vb, as a fraction from the va end.
func edgeT(va, vb, iso float32) float64 {
	//lint:ignore floateq exact divide-by-zero guard: crossing edges give t in [0,1] for any nonzero denominator, and an epsilon would shift vertices on valid steep edges
	if va != vb {
		return float64((iso - va) / (vb - va))
	}
	return 0.5
}

// Isosurface extracts the isoValue contour of the named field as a
// triangle mesh whose per-vertex scalar is isoValue (constant), so the
// surface renders with a single colormap entry — matching the paper's
// single-isovalue renders. The mesh is shaded smooth, with per-vertex
// normals from the field gradient (VTK's normals filter), which DrawMesh
// reads from g: g must not change until the mesh is drawn (see Mesh). It
// returns an error if the field is missing. The mesh may be handed back
// with PutMesh once drawn.
func Isosurface(g *data.StructuredGrid, fieldName string, isoValue float32) (*Mesh, error) {
	return isosurface(getMesh(), nil, g, fieldName, isoValue)
}

// isosurface is Isosurface into m, whose contents it replaces, through
// own's buffers (pooled ones when own is nil; see contour).
func isosurface(m *Mesh, own *contourBuffers, g *data.StructuredGrid, fieldName string, isoValue float32) (*Mesh, error) {
	f, err := g.Field(fieldName)
	if err != nil {
		return nil, err
	}
	contour(m, own, g, f.Values, isoValue, func(m *Mesh, p vec.V3) {
		m.Scalars = append(m.Scalars, isoValue)
	})
	m.grid, m.field = g, f
	return m, nil
}

// distPool holds slicePlane's per-vertex signed distances.
var distPool mempool.SlicePool[float32]

// slicePlane replaces m with the cross-section of the grid with the
// plane through point with unit normal, colored by the named field,
// contouring through own's buffers (see contour): the
// signed distance to the plane is contoured at zero and each output
// vertex samples the field for colormapping. This is VTK's slice filter
// reproduced with the same cell-scan cost profile.
func slicePlane(m *Mesh, own *contourBuffers, g *data.StructuredGrid, fieldName string, point, normal vec.V3) (*Mesh, error) {
	f, err := g.Field(fieldName)
	if err != nil {
		return nil, err
	}
	n := normal.Norm()
	if n == (vec.V3{}) {
		return nil, fmt.Errorf("geom: slice plane normal is zero")
	}
	dist := distPool.Get(g.Count())
	par.For(g.NZ, 0, func(k int) {
		idx := g.Index(0, 0, k)
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				dist[idx] = float32(g.VertexPos(i, j, k).Sub(point).Dot(n))
				idx++
			}
		}
	})
	contour(m, own, g, dist, 0, func(m *Mesh, p vec.V3) {
		m.Scalars = append(m.Scalars, g.Sample(f, p))
	})
	distPool.Put(dist)
	return m, nil
}

// The edge cache is what makes the mesh indexed: it remembers the mesh
// vertex already emitted on a grid edge so the next tetrahedron crossing
// that edge reuses it. It is keyed by the DIRECTED edge, from corner to
// to corner: the crossing is interpolated from the from corner with a
// float32 t, so the two directions of one edge give positions that differ
// in the last bit or two, and merging them would move pixels.
//
// A cell's nineteen tet edges point along eight directions, so sixteen
// slots per grid vertex hold every directed edge, filed under the edge's
// anchor: its lower end, in z first, then y, then x. Only the two vertex
// planes bounding the current slab are kept, and they roll: a slab's top
// plane is the next slab's bottom. Nothing is cleared between slabs:
// vertex ids only grow, so a slot of the top plane is live when its id is
// at least the vertex count at the start of this slab, and a slot of the
// bottom plane when its id is at least the count at the start of the
// previous slab, whose top plane it was; anything older is smaller.
const edgeSlots = 16

// contourBuffers is one contour worker's memory: its edge cache and its
// vertex class bitsets (see contourSlabs). Both only grow.
type contourBuffers struct {
	cache   []int32
	classes []uint64
}

// contourPool holds the buffers of workers that bring none of their own.
var contourPool sync.Pool

// getBuffers returns pooled contour buffers, or new ones.
func getBuffers() *contourBuffers {
	if b, _ := contourPool.Get().(*contourBuffers); b != nil {
		return b
	}
	return new(contourBuffers)
}

// cellEdge is one directed edge of a cell, ready to interpolate and to
// look up: its end corners and the cache slot of its anchor vertex.
type cellEdge struct {
	from, to uint8
	plane    int // of the anchor: 0 the slab's bottom vertex plane, 1 its top
	ax, ay   int // anchor's vertex offset within the cell
	slot     int
}

// cellCase is tetCrossings resolved to cell corners for one tetrahedron.
type cellCase struct {
	n     int
	edges [4]cellEdge
}

// cellCases is indexed by tetrahedron, then by that tet's inside mask.
var cellCases = func() (table [6][16]cellCase) {
	// The eight directions of a cell's edges, from the anchor.
	dirs := [][3]int{{1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}, {0, -1, 1}}
	xyz := func(corner int) [3]int { return [3]int{corner & 1, corner >> 1 & 1, corner >> 2 & 1} }
	for t, tet := range tets {
		for mask, crossing := range tetCrossings {
			c := &table[t][mask]
			c.n = crossing.n
			for e := 0; e < crossing.n; e++ {
				from, to := tet[crossing.edges[e][0]], tet[crossing.edges[e][1]]
				// Corner numbers order the corners by z, then y, then x.
				a, b, reversed := xyz(from), xyz(to), 0
				if to < from {
					a, b, reversed = b, a, 1
				}
				dir := slices.Index(dirs, [3]int{b[0] - a[0], b[1] - a[1], b[2] - a[2]})
				if dir < 0 {
					panic(fmt.Sprintf("geom: tet %d edge %d-%d has no cache slot", t, from, to))
				}
				c.edges[e] = cellEdge{
					from: uint8(from), to: uint8(to),
					plane: a[2], ax: a[0], ay: a[1],
					slot: 2*dir + reversed,
				}
			}
		}
	}
	return table
}()

// contour replaces m with the marching-tetrahedra contour of every cell
// of g for the implicit function vals (one value per vertex, grid order),
// calling attr once for each vertex it adds to the mesh to append that
// vertex's scalar. Workers take contiguous runs of z-slabs,
// each filling a mesh of its own (the first one m) through private
// buffers (the first one own, pooled when own is nil), and the meshes
// are concatenated onto m in slab order — so the triangle order is the
// same for any worker count, and only vertices on a plane between two
// workers are stored twice.
func contour(m *Mesh, own *contourBuffers, g *data.StructuredGrid, vals []float32, iso float32, attr func(m *Mesh, p vec.V3)) {
	m.reset()
	slabs := g.NZ - 1
	if g.NX < 2 || g.NY < 2 || slabs < 1 {
		return
	}
	if own == nil {
		own = getBuffers()
		defer contourPool.Put(own)
	}
	workers := par.DefaultWorkers()
	if workers > slabs {
		workers = slabs
	}
	if workers == 1 {
		// Calling par.For would heap-allocate its closure for nothing.
		contourSlabs(m, own, g, vals, iso, attr, 0, slabs)
		return
	}
	parts := make([]*Mesh, workers)
	parts[0] = m
	par.For(workers, workers, func(w int) {
		b := own
		if w > 0 {
			parts[w], b = getMesh(), getBuffers()
			defer contourPool.Put(b)
		}
		contourSlabs(parts[w], b, g, vals, iso, attr, w*slabs/workers, (w+1)*slabs/workers)
	})
	for _, p := range parts[1:] {
		m.Append(p)
		PutMesh(p)
	}
}

// bit is 1 for true; the compiler turns it into a flag move, not a branch.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// classify fills ge and lt, one bit per vertex of row and 64 to a word,
// with the vertex's class: bit i of ge is set when row[i] is at or above
// iso, of lt when it is below. A NaN is neither.
func classify(ge, lt []uint64, row []float32, iso float32) {
	for w := range ge {
		var above, below uint64
		for b, v := range row[w*64 : min(w*64+64, len(row))] {
			above |= uint64(bit(v >= iso)) << b
			below |= uint64(bit(v < iso)) << b
		}
		ge[w], lt[w] = above, below
	}
}

// contourSlabs contours the cells of z-slabs [k0, k1) into m, through
// b's edge cache and vertex classes.
//
// Only cells with a corner on each side of iso are contoured, and they
// are found a word at a time. Each vertex row is classified once into
// bitsets (classify), kept for the two vertex planes bounding the slab,
// which roll as the edge cache's do. A cell row's corners are its four
// vertex rows, each at columns i and i+1: or'ing the rows, and the result
// with itself shifted down one column (bit 0 of the next word carried
// into bit 63), sets bit i when cell i has a corner at or above iso, or
// below it; a cell with both is visited. Set bits are visited in
// increasing order, so cells are contoured in the order a plain scan
// would visit them.
func contourSlabs(m *Mesh, b *contourBuffers, g *data.StructuredGrid, vals []float32, iso float32, attr func(m *Mesh, p vec.V3), k0, k1 int) {
	nx, ny := g.NX, g.NY
	plane := nx * ny * edgeSlots
	b.cache = resize(b.cache, 2*plane)
	cache := b.cache
	for i := range cache {
		cache[i] = -1
	}
	// A vertex row's classes are its words of ge bits, then of lt bits.
	// A cell row's nx-1 cells take cellWords words, and lastCells masks
	// the last of them to the cells that exist.
	words := (nx + 63) / 64
	classPlane := 2 * words * ny
	b.classes = resize(b.classes, 2*classPlane)
	classes := b.classes
	rowClass := func(j, k int) (ge, lt []uint64) {
		r := classes[(k&1)*classPlane+2*words*j:][:2*words]
		return r[:words], r[words:]
	}
	classifyPlane := func(k int) {
		for j := 0; j < ny; j++ {
			ge, lt := rowClass(j, k)
			classify(ge, lt, vals[g.Index(0, j, k):][:nx], iso)
		}
	}
	cellWords := (nx - 1 + 63) / 64
	lastCells := ^uint64(0) >> (64*cellWords - (nx - 1))
	classifyPlane(k0)
	// Slots of the slab's bottom plane are live from the previous slab's
	// first vertex id on, slots of its top plane from this slab's.
	var live [2]int32
	for k := k0; k < k1; k++ {
		classifyPlane(k + 1)
		live[0], live[1] = live[1], int32(len(m.Verts))
		planes := [2][]int32{cache[(k&1)*plane:][:plane], cache[((k+1)&1)*plane:][:plane]}
		z := [2]float64{g.Origin.Z + float64(k)*g.Spacing.Z, g.Origin.Z + float64(k+1)*g.Spacing.Z}
		for j := 0; j < ny-1; j++ {
			// A cell's six tets add at most four vertices and two
			// triangles each: with the room made here, the appends
			// below grow nothing.
			m.reserve(6*4*(nx-1), 6*2*(nx-1))
			y := [2]float64{g.Origin.Y + float64(j)*g.Spacing.Y, g.Origin.Y + float64(j+1)*g.Spacing.Y}
			// The cell row's four vertex rows, by (dy, dz).
			r00 := vals[g.Index(0, j, k):][:nx]
			r10 := vals[g.Index(0, j+1, k):][:nx]
			r01 := vals[g.Index(0, j, k+1):][:nx]
			r11 := vals[g.Index(0, j+1, k+1):][:nx]
			ge00, lt00 := rowClass(j, k)
			ge10, lt10 := rowClass(j+1, k)
			ge01, lt01 := rowClass(j, k+1)
			ge11, lt11 := rowClass(j+1, k+1)
			nextGE, nextLT := ge00[0]|ge10[0]|ge01[0]|ge11[0], lt00[0]|lt10[0]|lt01[0]|lt11[0]
			for w := 0; w < cellWords; w++ {
				ge, lt := nextGE, nextLT
				nextGE, nextLT = 0, 0
				if w+1 < words {
					nextGE = ge00[w+1] | ge10[w+1] | ge01[w+1] | ge11[w+1]
					nextLT = lt00[w+1] | lt10[w+1] | lt01[w+1] | lt11[w+1]
				}
				crossed := (ge | ge>>1 | nextGE<<63) & (lt | lt>>1 | nextLT<<63)
				if w == cellWords-1 {
					crossed &= lastCells
				}
				for ; crossed != 0; crossed &= crossed - 1 {
					i := 64*w + bits.TrailingZeros64(crossed)
					x := [2]float64{g.Origin.X + float64(i)*g.Spacing.X, g.Origin.X + float64(i+1)*g.Spacing.X}
					cv := [8]float32{r00[i], r00[i+1], r10[i], r10[i+1], r01[i], r01[i+1], r11[i], r11[i+1]}
					var inside uint8
					for c, v := range cv {
						inside |= bit(v >= iso) << c
					}
					corner := func(c uint8) vec.V3 { return vec.V3{X: x[c&1], Y: y[c>>1&1], Z: z[c>>2&1]} }
					for t := range tets {
						tet := &tets[t]
						mask := inside>>tet[0]&1 | inside>>tet[1]&1<<1 | inside>>tet[2]&1<<2 | inside>>tet[3]&1<<3
						cc := &cellCases[t][mask]
						var ids [4]int32
						for e := 0; e < cc.n; e++ {
							edge := &cc.edges[e]
							slot := &planes[edge.plane][(i+edge.ax+(j+edge.ay)*nx)*edgeSlots+edge.slot]
							if *slot < live[edge.plane] {
								*slot = int32(len(m.Verts))
								p := corner(edge.from).Lerp(corner(edge.to), edgeT(cv[edge.from], cv[edge.to], iso))
								m.Verts = append(m.Verts, p)
								attr(m, p)
							}
							ids[e] = *slot
						}
						switch cc.n {
						case 3:
							m.Tris = append(m.Tris, [3]int32{ids[0], ids[1], ids[2]})
						case 4:
							m.Tris = append(m.Tris, [3]int32{ids[0], ids[1], ids[3]}, [3]int32{ids[0], ids[3], ids[2]})
						}
					}
				}
			}
		}
	}
}
