// Package rt implements ETH's raycasting pipeline — the geometry-free
// renderer of the paper (§IV-C): spheres for particle data via a bounding
// volume hierarchy, and slices / ray-marched isosurfaces for volume data.
// Its cost structure mirrors OSPRay-style CPU raycasters: an O(N log N)
// acceleration-structure build followed by per-ray work that is sub-linear
// in the particle count and independent of it for fixed ray budgets —
// the asymmetry behind the paper's Findings 3 and 7.
package rt

import (
	"math"
	"strconv"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

// BuildStrategy names the BVH construction algorithm; MedianSplit is its
// only value (see BuildSphereBVH for why the type remains).
type BuildStrategy uint8

// MedianSplit splits at the object median along the longest axis: an
// O(N log N) build. (DESIGN.md §4 says why binned SAH is gone.)
const MedianSplit BuildStrategy = 0

// leafSize is the maximum primitives per leaf; maxDepth cuts a branch
// that degenerate input keeps splitting unevenly into one oversized leaf,
// which bounds the traversal stack.
const (
	leafSize = 16
	maxDepth = 60
)

// node is the one BVH node layout: 32 bytes, two to a cache line. Leaves
// have count > 0 and left as the first primitive index; internal nodes
// have count == 0 and left as the index of the first child (children are
// adjacent). bounds holds min x, y, z then max x, y, z as float32,
// rounded outward from the float64 box (centroid range ± radius), so the
// stored box contains every sphere under it exactly and a traversal that
// tests it is conservative: it may enter a node a float64 box would have
// skipped, never the reverse.
type node struct {
	bounds [6]float32
	left   int32
	count  int32
}

// sphere is one primitive in BVH order: the float32 centre the dataset
// stores and the particle it came from.
type sphere struct {
	c  [3]float32
	id int32
}

// SphereBVH is a bounding volume hierarchy over a set of spheres with a
// common radius, built from a particle dataset. Primitive order is
// shuffled during construction; prims[i].id maps BVH order back to
// particle index.
type SphereBVH struct {
	nodes  []node
	prims  []sphere
	radius float64
	// scratch is the build's working memory, kept so a rebuild allocates
	// nothing: buildScratch int32s per particle (see builder).
	scratch []int32
	// NodesBuilt is a build statistic exposed for the instrumentation
	// experiments.
	NodesBuilt int
}

// buildScratch is the scratch the build needs per particle: the three
// axis orders, the partition buffer and the marks, which hold the radix
// keys before the recursion needs them.
const buildScratch = 5

// BuildSphereBVH constructs the hierarchy over all particles of p, each a
// sphere of the given radius. Build cost is O(N log N) — the "additional
// setup phase" the paper attributes raycasting's extra computation to.
// It allocates the header, the two slices and the build's scratch,
// whatever N is. The strategy parameter takes MedianSplit only; it is
// kept so the signature bench/ethperf calls does not change.
func BuildSphereBVH(p *data.PointCloud, radius float64, _ BuildStrategy) *SphereBVH {
	n := p.Count()
	b := &SphereBVH{prims: make([]sphere, n), nodes: make([]node, 0, n/4+2)}
	b.Rebuild(p, radius)
	return b
}

// Rebuild replaces b with the hierarchy BuildSphereBVH would build over
// p, in b's own primitive, node and scratch arrays: once they are large
// enough for p, a rebuild allocates nothing.
func (b *SphereBVH) Rebuild(p *data.PointCloud, radius float64) {
	n := p.Count()
	if cap(b.prims) < n {
		b.prims = make([]sphere, n)
	}
	// A median split never leaves a leaf under leafSize/2 = 8 primitives,
	// so the tree has fewer than n/4 nodes.
	if cap(b.nodes) < n/4+2 {
		b.nodes = make([]node, 0, n/4+2)
	}
	if cap(b.scratch) < buildScratch*n {
		b.scratch = make([]int32, buildScratch*n)
	}
	b.prims, b.nodes = b.prims[:n], b.nodes[:0]
	b.radius, b.NodesBuilt = radius, 0
	if n == 0 {
		return
	}
	s := b.scratch[:buildScratch*n]
	bd := builder{b: b, v: [3][]float32{p.X[:n], p.Y[:n], p.Z[:n]}, buf: s[3*n : 4*n], mark: s[4*n:]}
	for a := range bd.ord {
		// The marks are not needed until the recursion: until then they
		// hold the radix keys.
		bd.ord[a] = s[a*n : (a+1)*n]
		radixSort(bd.v[a], bd.ord[a], bd.mark, bd.buf)
	}
	b.nodes = append(b.nodes, node{})
	bd.build(0, 0, n, 0)
	b.NodesBuilt = len(b.nodes)
	// Each leaf's range holds its particles in every order; write them
	// out once, in the x order.
	for i, id := range bd.ord[0] {
		b.prims[i] = sphere{c: [3]float32{p.X[id], p.Y[id], p.Z[id]}, id: id}
	}
}

// builder is one build's state. ord holds the particle indices sorted by
// centre once per axis; the recursion keeps every node's particles in
// the same range [lo, hi) of all three orders, each still sorted by its
// axis, so a node's extent is read from the two ends of each order and
// the median split along an axis is that axis's order cut in two. buf
// and mark serve the partition that carries the split to the other two
// orders.
type builder struct {
	b         *SphereBVH
	v         [3][]float32 // the centres' coordinates per axis
	ord       [3][]int32
	buf, mark []int32
}

// build recursively constructs the subtree for the particles in [lo, hi)
// of the orders at node index ni. It splits where a quickselect at the
// median of the longest axis would: the first mid particles of that
// axis's order go left. Where centres tie at the median the order breaks
// the tie by particle index.
func (bd *builder) build(ni, lo, hi, depth int) {
	b := bd.b
	var e extent
	for a := range bd.ord {
		v, o := bd.v[a], bd.ord[a]
		mn, mx := v[o[lo]], v[o[hi-1]]
		// The order puts negative NaNs first and positive ones last; a
		// NaN anywhere makes the axis NaN at both planes, as the builtin
		// min and max do.
		if mn != mn || mx != mx {
			mn, mx = float32(math.NaN()), float32(math.NaN())
		}
		e.mn[a], e.mx[a] = mn, mx
	}
	nd := &b.nodes[ni]
	for a := 0; a < 3; a++ {
		nd.bounds[a] = roundDown(float64(e.mn[a]) - b.radius)
		nd.bounds[3+a] = roundUp(float64(e.mx[a]) + b.radius)
	}
	if hi-lo <= leafSize || depth > maxDepth {
		nd.left = int32(lo)
		nd.count = int32(hi - lo)
		return
	}
	mid := lo + (hi-lo)/2
	axis := e.aabb().LongestAxis()
	split := bd.ord[axis]
	for _, id := range split[lo:mid] {
		bd.mark[id] = 1
	}
	for _, id := range split[mid:hi] {
		bd.mark[id] = 0
	}
	for a := range bd.ord {
		if a != axis {
			partition(bd.ord[a][lo:hi], bd.mark, bd.buf)
		}
	}
	left := len(b.nodes)
	b.nodes = append(b.nodes, node{}, node{}) // may move the slice: nd is dead from here
	b.nodes[ni].left = int32(left)
	bd.build(left, lo, mid, depth+1)
	bd.build(left+1, mid, hi, depth+1)
}

// partition reorders o stably so that the indices marked 1 come first.
// Each index is written to both sides and only the side it belongs to
// advances, so no branch depends on the data; the right side waits in
// buf.
func partition(o, mark, buf []int32) {
	l, r := 0, 0
	buf = buf[:len(o)]
	for _, id := range o {
		m := int(mark[id])
		o[l] = id
		buf[r] = id
		l += m
		r += 1 - m
	}
	copy(o[l:], buf[:r])
}

// radixSort fills ord with 0..len(v)-1 stably sorted by v, in the order
// of sortKey: an LSD radix sort, one counting pass and then one scatter
// pass per key byte, each reading the keys by particle index. keys and
// buf are scratch of len(v).
func radixSort(v []float32, ord, keys, buf []int32) {
	var count [4][256]int32
	for i, x := range v {
		k := sortKey(x)
		keys[i] = int32(k)
		count[0][k&0xff]++
		count[1][k>>8&0xff]++
		count[2][k>>16&0xff]++
		count[3][k>>24]++
	}
	for d := range count {
		sum := int32(0)
		for j, c := range count[d] {
			count[d][j] = sum
			sum += c
		}
	}
	// The first pass scatters the indices themselves; the four passes end
	// in ord: buf, ord, buf, ord.
	c := &count[0]
	for i, k := range keys {
		j := c[k&0xff]
		c[k&0xff] = j + 1
		buf[j] = int32(i)
	}
	src, dst := buf, ord
	for d := 1; d < 4; d++ {
		c, shift := &count[d], 8*d
		for _, id := range src {
			b := keys[id] >> shift & 0xff
			j := c[b]
			c[b] = j + 1
			dst[j] = id
		}
		src, dst = dst, src
	}
}

// sortKey maps a float32 to a uint32 whose unsigned order is the float's
// order, with -0 below +0, negative NaNs below -Inf and positive NaNs
// above +Inf.
func sortKey(x float32) uint32 {
	u := math.Float32bits(x)
	return u ^ (uint32(int32(u)>>31) | 1<<31)
}

// extent is the float32 range of a set of centres. Minimum and maximum
// of float32 values are exact, so it is the range a float64 accumulation
// would find.
type extent struct {
	mn, mx [3]float32
}

// aabb widens the extent to float64, for the vec.AABB arithmetic the
// split axis is chosen in.
func (e *extent) aabb() vec.AABB {
	return vec.AABB{Min: v3(e.mn), Max: v3(e.mx)}
}

func v3(c [3]float32) vec.V3 {
	return vec.V3{X: float64(c[0]), Y: float64(c[1]), Z: float64(c[2])}
}

// roundDown returns the largest float32 not above x.
func roundDown(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// roundUp returns the smallest float32 not below x.
func roundUp(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Hit describes a ray-sphere intersection.
type Hit struct {
	T        float64 // ray parameter of the hit
	Particle int     // original particle index
	Normal   vec.V3  // outward surface normal at the hit point
}

// Intersect finds the nearest sphere hit along ray origin + t*dir for
// t in (tMin, tMax). It returns ok=false on a miss. dir need not be
// normalized but T is in units of |dir|. It is the one-ray packet of the
// walk RaycastSpheresWithBVH traces a tile through.
func (b *SphereBVH) Intersect(origin, dir vec.V3, tMin, tMax float64) (Hit, bool) {
	var p packet
	p.add(dir, tMax)
	b.trace(&p, origin, tMin)
	return b.hit(&p, 0, origin)
}

// tileRays is the capacity of a packet: one tile of the sphere renderer.
const tileRays = tileW * tileH

// packet is up to one tile of rays from a common origin, traced through
// the tree together. Each ray keeps its own direction, inverse direction,
// squared length and nearest hit; the arrays are fixed-size, so a packet
// lives on its caller's stack.
type packet struct {
	n          int
	dir        [tileRays]vec.V3
	ix, iy, iz [tileRays]float64
	a          [tileRays]float64 // dir·dir
	t          [tileRays]float64 // nearest hit so far; tMax before any
	prim       [tileRays]int32   // BVH index of that hit; -1 for none
}

// add appends the ray along dir, searched for hits below tMax.
func (p *packet) add(dir vec.V3, tMax float64) {
	i := p.n
	p.dir[i] = dir
	p.ix[i], p.iy[i], p.iz[i] = safeInv(dir.X), safeInv(dir.Y), safeInv(dir.Z)
	p.a[i] = dir.Dot(dir)
	p.t[i], p.prim[i] = tMax, -1
	p.n++
}

// coherent reports whether every ray of p enters each slab through the
// same plane, the condition for tracing them as one packet.
func (p *packet) coherent() bool {
	d0 := p.dir[0]
	for _, d := range p.dir[1:p.n] {
		if (d.X < 0) != (d0.X < 0) || (d.Y < 0) != (d0.Y < 0) || (d.Z < 0) != (d0.Z < 0) {
			return false
		}
	}
	return true
}

// trace finds each ray's nearest hit in (tMin, p.t[i]). Rays that agree
// in direction sign on every axis walk the tree as one packet; otherwise
// each walks it alone.
func (b *SphereBVH) trace(p *packet, origin vec.V3, tMin float64) {
	if len(b.nodes) == 0 {
		return
	}
	if p.coherent() {
		b.walk(p, 0, p.n, origin, tMin)
		return
	}
	for i := 0; i < p.n; i++ {
		b.walk(p, i, i+1, origin, tMin)
	}
}

// walk traces rays [lo, hi) of p, which share their direction signs,
// through the tree as one packet. Each internal node's children are
// tested once for the whole packet by slab, an interval that contains
// every ray's own clip interval (see DESIGN.md); each leaf is clipped and
// its spheres tested per ray against that ray's nearest hit. With one ray
// the packet interval is that ray's clip interval.
func (b *SphereBVH) walk(p *packet, lo, hi int, origin vec.V3, tMin float64) {
	nodes := b.nodes
	d := p.dir[lo]
	// A ray enters each slab through the plane its direction points away
	// from: n* index that plane in node.bounds, f* the opposite one.
	nx, fx := 0, 3
	if d.X < 0 {
		nx, fx = 3, 0
	}
	ny, fy := 1, 4
	if d.Y < 0 {
		ny, fy = 4, 1
	}
	nz, fz := 2, 5
	if d.Z < 0 {
		nz, fz = 5, 2
	}
	// The packet's range of inverse directions per axis, and the farthest
	// of its rays' nearest hits, which bounds what any node can still offer.
	xmn, xmx := p.ix[lo], p.ix[lo]
	ymn, ymx := p.iy[lo], p.iy[lo]
	zmn, zmx := p.iz[lo], p.iz[lo]
	tFar := p.t[lo]
	for i := lo + 1; i < hi; i++ {
		xmn, xmx = min(xmn, p.ix[i]), max(xmx, p.ix[i])
		ymn, ymx = min(ymn, p.iy[i]), max(ymx, p.iy[i])
		zmn, zmx = min(zmn, p.iz[i]), max(zmx, p.iz[i])
		tFar = max(tFar, p.t[i])
	}
	// The farther child of a two-child hit waits here with its entry
	// distance, so a popped node is pruned against the packet's farthest
	// hit without re-intersecting its bounds. At most one waits per
	// internal node on the path from the root, and those have depth
	// 0..maxDepth.
	type entry struct {
		node int32
		t    float64
	}
	var stack [maxDepth + 1]entry
	sp := 0
	var live [tileRays]int32 // the rays a leaf's box passes
	r2 := b.radius * b.radius

	// The root's own box is not tested: a packet that misses it fails both
	// child tests one step later.
	ni := int32(0)
	for {
		nd := &nodes[ni]
		if nd.count == 0 {
			// Internal: bound the packet's interval in both children's
			// boxes, walk into the nearer one hit and leave the farther on
			// the stack, so hits tighten first.
			li := nd.left
			lb, rb := &nodes[li].bounds, &nodes[li+1].bounds
			lt0, lt1 := slab(lb[nx], lb[fx], origin.X, xmn, xmx, tMin, tFar)
			lt0, lt1 = slab(lb[ny], lb[fy], origin.Y, ymn, ymx, lt0, lt1)
			lt0, lt1 = slab(lb[nz], lb[fz], origin.Z, zmn, zmx, lt0, lt1)
			rt0, rt1 := slab(rb[nx], rb[fx], origin.X, xmn, xmx, tMin, tFar)
			rt0, rt1 = slab(rb[ny], rb[fy], origin.Y, ymn, ymx, rt0, rt1)
			rt0, rt1 = slab(rb[nz], rb[fz], origin.Z, zmn, zmx, rt0, rt1)
			lok, rok := lt0 <= lt1, rt0 <= rt1
			switch {
			case lok && rok:
				if lt0 <= rt0 {
					stack[sp] = entry{li + 1, rt0}
					ni = li
				} else {
					stack[sp] = entry{li, lt0}
					ni = li + 1
				}
				sp++
				continue
			case lok:
				ni = li
				continue
			case rok:
				ni = li + 1
				continue
			}
			// Neither: this subtree is done.
		} else {
			// Leaf: clip each ray to the box against its own nearest hit,
			// then test the spheres against the rays that pass. A ray sees
			// the spheres in the order and with the arithmetic of a lone
			// ray; only the terms that do not depend on the ray are shared:
			// the six plane offsets from the origin, and per sphere oc and
			// |oc|² − r².
			bb := &nd.bounds
			xn, xf := float64(bb[nx])-origin.X, float64(bb[fx])-origin.X
			yn, yf := float64(bb[ny])-origin.Y, float64(bb[fy])-origin.Y
			zn, zf := float64(bb[nz])-origin.Z, float64(bb[fz])-origin.Z
			m := 0
			for i := lo; i < hi; i++ {
				t0, t1 := cut(xn, xf, p.ix[i], tMin, p.t[i])
				t0, t1 = cut(yn, yf, p.iy[i], t0, t1)
				t0, t1 = cut(zn, zf, p.iz[i], t0, t1)
				if t0 <= t1 {
					live[m] = int32(i)
					m++
				}
			}
			if m > 0 {
				s := b.prims[nd.left : nd.left+nd.count]
				tightened := false
				for j := range s {
					oc := origin.Sub(v3(s[j].c))
					cc := oc.Dot(oc) - r2
					for _, i := range live[:m] {
						// Solve |oc + t*dir|^2 = r^2.
						half := oc.Dot(p.dir[i])
						a := p.a[i]
						disc := half*half - a*cc
						if disc < 0 {
							continue
						}
						sq := math.Sqrt(disc)
						t := (-half - sq) / a
						if t <= tMin {
							t = (-half + sq) / a
						}
						if t <= tMin || t >= p.t[i] {
							continue
						}
						p.t[i], p.prim[i] = t, nd.left+int32(j)
						tightened = true
					}
				}
				// Only a tightened hit can lower the packet's bound.
				if tightened {
					tFar = p.t[lo]
					for i := lo + 1; i < hi; i++ {
						tFar = max(tFar, p.t[i])
					}
				}
			}
		}
		// Pop the nearest waiting node that can still beat some ray's hit.
		for {
			if sp == 0 {
				return
			}
			sp--
			if stack[sp].t < tFar {
				ni = stack[sp].node
				break
			}
		}
	}
}

// hit returns ray i's nearest hit, ok=false if it has none.
func (b *SphereBVH) hit(p *packet, i int, origin vec.V3) (Hit, bool) {
	if p.prim[i] < 0 {
		return Hit{}, false
	}
	s := &b.prims[p.prim[i]]
	hitP := origin.Add(p.dir[i].Scale(p.t[i]))
	return Hit{T: p.t[i], Particle: int(s.id), Normal: hitP.Sub(v3(s.c)).Norm()}, true
}

// slab narrows a packet's interval (t0, t1) to one slab: near and far are
// the planes its rays enter and leave it through, o their common origin
// on that axis and [imn, imx] the range of their inverse directions.
// Rounded multiplication is monotone, so the products at the ends of the
// range bound every ray's own: the interval contains each ray's clip
// interval. A NaN product (0 × Inf, as in cut) leaves that plane out of
// the test, as cut does, and that still contains every ray's interval.
// With imn == imx it is cut.
func slab(near, far float32, o, imn, imx, t0, t1 float64) (float64, float64) {
	dn, df := float64(near)-o, float64(far)-o
	if a, b := dn*imn, dn*imx; a > t0 && b > t0 {
		t0 = min(a, b)
	}
	if a, b := df*imn, df*imx; a < t1 && b < t1 {
		t1 = max(a, b)
	}
	return t0, t1
}

// cut narrows the ray interval (t0, t1) to one slab: dn and df are the
// offsets from the ray's origin of the planes it enters and leaves the
// slab through, inv its inverse direction, all on one axis. Every
// comparison is false on NaN (0 × Inf: an axis-parallel ray whose origin
// lies on a bound plane), which leaves that plane out of the test — the
// conservative reading; min and max would propagate the NaN into a miss.
// It is small enough to inline, so the traversal loop makes no calls.
func cut(dn, df, inv, t0, t1 float64) (float64, float64) {
	if t := dn * inv; t > t0 {
		t0 = t
	}
	if t := df * inv; t < t1 {
		t1 = t
	}
	return t0, t1
}

// Validate checks structural invariants: children bounds are inside
// parents, every primitive appears exactly once, and every sphere —
// centre ± radius, in float64 — is inside its leaf's float32 bounds. It
// is used by property tests and returns the first violation found.
func (b *SphereBVH) Validate() error {
	if len(b.prims) == 0 {
		return nil
	}
	seen := make([]bool, len(b.prims))
	var walk func(ni int32, parent *[6]float32) error
	walk = func(ni int32, parent *[6]float32) error {
		nd := &b.nodes[ni]
		for a := 0; a < 3; a++ {
			if parent != nil && (nd.bounds[a] < parent[a] || nd.bounds[3+a] > parent[3+a]) {
				return errBVH("child bounds escape parent")
			}
		}
		if nd.count > 0 {
			for i := nd.left; i < nd.left+nd.count; i++ {
				if seen[i] {
					return errBVH("primitive referenced twice")
				}
				seen[i] = true
				for a := 0; a < 3; a++ {
					c := float64(b.prims[i].c[a])
					if c-b.radius < float64(nd.bounds[a]) || c+b.radius > float64(nd.bounds[3+a]) {
						return errBVH("sphere outside leaf bounds")
					}
				}
			}
			return nil
		}
		if err := walk(nd.left, &nd.bounds); err != nil {
			return err
		}
		return walk(nd.left+1, &nd.bounds)
	}
	if err := walk(0, nil); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return errBVH("primitive missing from tree: " + strconv.Itoa(i))
		}
	}
	return nil
}

type errBVH string

func (e errBVH) Error() string { return "rt: " + string(e) }

func safeInv(x float64) float64 {
	//lint:ignore floateq exact IEEE special case: only x == 0 needs the explicit +Inf (avoiding -0 sign surprises); any nonzero x divides fine
	if x == 0 {
		return math.Inf(1)
	}
	return 1 / x
}
