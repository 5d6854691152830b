package rt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/vec"
)

// The reference is the sphere renderer this package had before it traced
// tiles as packets, kept as it was: one traversal per pixel, each node's
// children clipped per ray. The differential tests below hold
// RaycastSpheresWithBVH to it bit for bit.

func refIntersect(b *SphereBVH, origin, dir vec.V3, tMin, tMax float64) (Hit, bool) {
	nodes := b.nodes
	if len(nodes) == 0 {
		return Hit{}, false
	}
	ix, iy, iz := safeInv(dir.X), safeInv(dir.Y), safeInv(dir.Z)
	nx, fx := 0, 3
	if dir.X < 0 {
		nx, fx = 3, 0
	}
	ny, fy := 1, 4
	if dir.Y < 0 {
		ny, fy = 4, 1
	}
	nz, fz := 2, 5
	if dir.Z < 0 {
		nz, fz = 5, 2
	}
	type entry struct {
		node int32
		t    float64
	}
	var stack [maxDepth + 1]entry
	sp := 0

	bestT, bestI := tMax, -1
	a := dir.Dot(dir)
	r2 := b.radius * b.radius

	ni := int32(0)
walk:
	for {
		nd := &nodes[ni]
		if nd.count == 0 {
			li := nd.left
			lb, rb := &nodes[li].bounds, &nodes[li+1].bounds
			lt0, lt1 := clip(lb[nx], lb[fx], origin.X, ix, tMin, bestT)
			lt0, lt1 = clip(lb[ny], lb[fy], origin.Y, iy, lt0, lt1)
			lt0, lt1 = clip(lb[nz], lb[fz], origin.Z, iz, lt0, lt1)
			rt0, rt1 := clip(rb[nx], rb[fx], origin.X, ix, tMin, bestT)
			rt0, rt1 = clip(rb[ny], rb[fy], origin.Y, iy, rt0, rt1)
			rt0, rt1 = clip(rb[nz], rb[fz], origin.Z, iz, rt0, rt1)
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
		} else {
			s := b.prims[nd.left : nd.left+nd.count]
			for i := range s {
				oc := origin.Sub(v3(s[i].c))
				half := oc.Dot(dir)
				cc := oc.Dot(oc) - r2
				disc := half*half - a*cc
				if disc < 0 {
					continue
				}
				sq := math.Sqrt(disc)
				t := (-half - sq) / a
				if t <= tMin {
					t = (-half + sq) / a
				}
				if t <= tMin || t >= bestT {
					continue
				}
				bestT, bestI = t, int(nd.left)+i
			}
		}
		for {
			if sp == 0 {
				break walk
			}
			sp--
			if stack[sp].t < bestT {
				ni = stack[sp].node
				break
			}
		}
	}
	if bestI < 0 {
		return Hit{}, false
	}
	p := &b.prims[bestI]
	hitP := origin.Add(dir.Scale(bestT))
	return Hit{T: bestT, Particle: int(p.id), Normal: hitP.Sub(v3(p.c)).Norm()}, true
}

// clip narrows the ray interval (t0, t1) to one slab: near and far are the
// planes the ray enters and leaves it through, o and inv the ray's origin
// and inverse direction on that axis: cut with each plane offset computed
// per ray. Comparisons ignore a NaN plane as cut's do.
func clip(near, far float32, o, inv, t0, t1 float64) (float64, float64) {
	if t := (float64(near) - o) * inv; t > t0 {
		t0 = t
	}
	if t := (float64(far) - o) * inv; t < t1 {
		t1 = t
	}
	return t0, t1
}

func refRaycastSpheresWithBVH(frame *fb.Frame, p *data.PointCloud, bvh *SphereBVH, cam *camera.Camera, opt SphereOptions) error {
	colors, err := new(Scratch).scalarColors(p, opt.ColorField, opt.ScalarLo, opt.ScalarHi)
	if err != nil {
		return err
	}
	light := cam.Eye.Sub(cam.Center).Norm()

	w, h := frame.W, frame.H
	gen := cam.NewRayGen(w, h)
	par.ForGrained(h, 0, 4, func(y0, y1 int) {
		for x0 := 0; x0 < w; x0 += 8 {
			x1 := min(x0+8, w)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					ray := gen.Ray(x, y)
					hit, ok := refIntersect(bvh, ray.Origin, ray.Dir, cam.Near, cam.Far)
					if !ok {
						continue
					}
					lambert := hit.Normal.Dot(light)
					if lambert < 0 {
						lambert = 0
					}
					shade := ambient + (1-ambient)*lambert
					c := colors[hit.Particle].Scale(shade)
					frame.DepthSet(x, y, hit.T, c)
				}
			}
		}
	})
	return nil
}

// renderBoth renders p as spheres of the given radius from cam at size x
// size with the packet renderer and the reference, from one tree.
func renderBoth(t *testing.T, p *data.PointCloud, radius float64, cam *camera.Camera, size int) (got, want *fb.Frame) {
	t.Helper()
	bvh := BuildSphereBVH(p, radius, MedianSplit)
	opt := SphereOptions{ColorField: "speed"}
	got, want = fb.New(size, size), fb.New(size, size)
	if err := RaycastSpheresWithBVH(got, p, bvh, cam, opt); err != nil {
		t.Fatal(err)
	}
	if err := refRaycastSpheresWithBVH(want, p, bvh, cam, opt); err != nil {
		t.Fatal(err)
	}
	if want.CoveredPixels() == 0 {
		t.Fatal("the reference covered no pixel: the comparison measures nothing")
	}
	return got, want
}

// requireSameFrame fails unless got and want agree on every pixel's
// depth and, with colors set, its colour — as values, bit for bit.
func requireSameFrame(t *testing.T, name string, got, want *fb.Frame, colors bool) {
	t.Helper()
	for i := range want.Depth {
		if got.Depth[i] != want.Depth[i] || colors && got.Color[i] != want.Color[i] {
			t.Fatalf("%s: pixel (%d,%d): got %v %v, reference %v %v", name,
				i%want.W, i/want.W, got.Color[i], got.Depth[i], want.Color[i], want.Depth[i])
		}
	}
}

// cosmoCloud is the benchmark's particle input: a cosmo step with its
// speed field, the field the raycast workloads colour by.
func cosmoCloud(t testing.TB, particles int, seed int64) *data.PointCloud {
	t.Helper()
	params := cosmo.DefaultParams()
	params.Particles, params.Seed = particles, seed
	p, err := cosmo.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	p.SpeedField()
	return p
}

// TestPacketsMatchReferenceCosmo renders the two cosmo raycast workloads'
// sizes, every orbit image of a three-image step, and requires the
// packet renderer's frames to equal the per-ray reference's.
func TestPacketsMatchReferenceCosmo(t *testing.T) {
	sizes := []struct{ particles, pixels int }{{60_000, 352}, {30_000, 224}}
	if testing.Short() {
		sizes = sizes[1:]
	}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			p := cosmoCloud(t, sz.particles, seed)
			for k := 0; k < 3; k++ {
				cam := orbitCamera(p.Bounds(), k, 3)
				got, want := renderBoth(t, p, geom.DefaultSplatRadius(p), &cam, sz.pixels)
				requireSameFrame(t, "cosmo", got, want, true)
			}
		}
	}
}

// TestPacketsMatchReferenceInsideCloud puts the camera inside the cloud,
// where tiles straddle an axis-sign change and must fall back to one-ray
// packets, and requires frames equal to the reference's.
func TestPacketsMatchReferenceInsideCloud(t *testing.T) {
	const size = 160
	p := cosmoCloud(t, 20_000, 4)
	b := p.Bounds()
	for _, look := range []vec.V3{vec.New(1, 0.2, 0.1), vec.New(-0.3, -1, 0.4), vec.New(0.05, 0.1, -1)} {
		cam := camera.LookAt(b.Center(), b.Center().Add(look), vec.New(0, 1, 0))
		cam.Near, cam.Far = 1e-3, b.Diagonal()
		// Both kinds of tile must occur, or the test checks one path only.
		gen := cam.NewRayGen(size, size)
		mixed, coherent := 0, 0
		for y0 := 0; y0 < size; y0 += tileH {
			for x0 := 0; x0 < size; x0 += tileW {
				var pk packet
				for y := y0; y < y0+tileH; y++ {
					for x := x0; x < x0+tileW; x++ {
						pk.add(gen.Ray(x, y).Dir, cam.Far)
					}
				}
				if pk.coherent() {
					coherent++
				} else {
					mixed++
				}
			}
		}
		if mixed == 0 || coherent == 0 {
			t.Fatalf("look %v: %d mixed-sign and %d coherent tiles; want both", look, mixed, coherent)
		}
		got, want := renderBoth(t, p, geom.DefaultSplatRadius(p), &cam, size)
		requireSameFrame(t, "inside", got, want, true)
	}
}

// TestPacketsMatchReferenceRandomCloud covers uniform, unclustered
// spheres from the default camera, at a size that is no multiple of the
// tile so partial tiles run too.
func TestPacketsMatchReferenceRandomCloud(t *testing.T) {
	p := randomCloud(8_000, 21)
	p.SpeedField()
	cam := camera.ForBounds(p.Bounds())
	got, want := renderBoth(t, p, geom.DefaultSplatRadius(p), &cam, 101)
	requireSameFrame(t, "random", got, want, true)
}

// TestPacketsMatchReferenceLattice renders lattice spheres of radius 0.5,
// whose boxes touch their extreme spheres and which tie in T, so which of two tied spheres colours a pixel depends on visiting
// order: depth and coverage must agree, colour need not.
func TestPacketsMatchReferenceLattice(t *testing.T) {
	p := latticeCloud(3_000, 12)
	p.SpeedField()
	for k := 0; k < 3; k++ {
		cam := orbitCamera(p.Bounds(), k, 3)
		got, want := renderBoth(t, p, 0.5, &cam, 96)
		requireSameFrame(t, "lattice", got, want, false)
		if got.CoveredPixels() != want.CoveredPixels() {
			t.Errorf("view %d: covered %d pixels, reference %d", k, got.CoveredPixels(), want.CoveredPixels())
		}
	}
}

// The build reference is the median-split build this package had before
// it split on presorted axis orders, kept as it was: one pass over each
// node's range for its centroid extent, then a quickselect at the median
// of the longest axis. refBuild runs it with a given selection, so the
// tie rule of the presorted build can be written the same way.

// selectFunc partially orders s so that its first n entries are the ones
// that go left when s is split at n along axis.
type selectFunc func(s []sphere, n, axis int)

func refBuild(p *data.PointCloud, radius float64, sel selectFunc) *SphereBVH {
	n := p.Count()
	b := &SphereBVH{prims: make([]sphere, n), nodes: make([]node, 0, n/4+2), radius: radius}
	if n == 0 {
		return b
	}
	for i := range b.prims {
		b.prims[i] = sphere{c: [3]float32{p.X[i], p.Y[i], p.Z[i]}, id: int32(i)}
	}
	var build func(ni, lo, hi, depth int)
	build = func(ni, lo, hi, depth int) {
		s := b.prims[lo:hi]
		e := centroidRange(s)
		nd := &b.nodes[ni]
		for a := 0; a < 3; a++ {
			nd.bounds[a] = roundDown(float64(e.mn[a]) - b.radius)
			nd.bounds[3+a] = roundUp(float64(e.mx[a]) + b.radius)
		}
		if len(s) <= leafSize || depth > maxDepth {
			nd.left = int32(lo)
			nd.count = int32(len(s))
			return
		}
		mid := len(s) / 2
		sel(s, mid, e.aabb().LongestAxis())
		left := len(b.nodes)
		b.nodes = append(b.nodes, node{}, node{})
		b.nodes[ni].left = int32(left)
		build(left, lo, lo+mid, depth+1)
		build(left+1, lo+mid, hi, depth+1)
	}
	b.nodes = append(b.nodes, node{})
	build(0, 0, n, 0)
	b.NodesBuilt = len(b.nodes)
	return b
}

// centroidRange returns the extent of the centres in s; the builtin min
// and max make an axis NaN at both ends if any centre is NaN there.
func centroidRange(s []sphere) extent {
	inf := float32(math.Inf(1))
	x0, y0, z0 := inf, inf, inf
	x1, y1, z1 := -inf, -inf, -inf
	for i := range s {
		c := &s[i].c
		x0, x1 = min(x0, c[0]), max(x1, c[0])
		y0, y1 = min(y0, c[1]), max(y1, c[1])
		z0, z1 = min(z0, c[2]), max(z1, c[2])
	}
	return extent{mn: [3]float32{x0, y0, z0}, mx: [3]float32{x1, y1, z1}}
}

// nthElement partially sorts s so that index n holds the value it would
// after a full sort by the given centre axis (quickselect, finishing
// ranges of at most eight with a stable insertion sort). Which of several
// tied centres lands on which side of n is left to the partition.
func nthElement(s []sphere, n, axis int) {
	lo, hi := 0, len(s)
	for hi-lo > 8 {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		if s[mid].c[axis] < s[lo].c[axis] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi-1].c[axis] < s[lo].c[axis] {
			s[hi-1], s[lo] = s[lo], s[hi-1]
		}
		if s[hi-1].c[axis] < s[mid].c[axis] {
			s[hi-1], s[mid] = s[mid], s[hi-1]
		}
		pivot := s[mid].c[axis]
		i, j := lo, hi-1
		for i <= j {
			for s[i].c[axis] < pivot {
				i++
			}
			for s[j].c[axis] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j + 1
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && s[j].c[axis] < s[j-1].c[axis]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// tieRule is the presorted build's tie rule written as a selection: sort
// the range by the centres' sort keys on the axis, ties by particle
// index. It counts in *ties the splits where the centres either side of
// the median are equal, the only splits at which a quickselect may pick
// another left set.
func tieRule(ties *int) selectFunc {
	return func(s []sphere, n, axis int) {
		slices.SortFunc(s, func(a, b sphere) int {
			return cmp.Or(cmp.Compare(sortKey(a.c[axis]), sortKey(b.c[axis])), cmp.Compare(a.id, b.id))
		})
		if s[n-1].c[axis] == s[n].c[axis] {
			*ties++
		}
	}
}

// sameBounds reports whether two node boxes are equal plane for plane,
// NaN equal to NaN.
func sameBounds(a, b *[6]float32) bool {
	for i := range a {
		if a[i] != b[i] && (a[i] == a[i] || b[i] == b[i]) {
			return false
		}
	}
	return true
}

// requireSameTree fails unless the two trees have equal node arrays, NaN
// bounds equal to NaN, and hold the same particles in every leaf.
func requireSameTree(t testing.TB, name string, got, want *SphereBVH) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) || got.NodesBuilt != want.NodesBuilt {
		t.Fatalf("%s: %d nodes, reference %d", name, len(got.nodes), len(want.nodes))
	}
	for i, nd := range want.nodes {
		if g := got.nodes[i]; g.left != nd.left || g.count != nd.count || !sameBounds(&g.bounds, &nd.bounds) {
			t.Fatalf("%s: node %d is %+v, reference %+v", name, i, g, nd)
		}
	}
	var g, w []int32
	for _, nd := range want.nodes {
		if nd.count == 0 {
			continue
		}
		g, w = g[:0], w[:0]
		for j := nd.left; j < nd.left+nd.count; j++ {
			g, w = append(g, got.prims[j].id), append(w, want.prims[j].id)
		}
		slices.Sort(g)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: leaf at %d holds particles %v, reference %v", name, nd.left, g, w)
		}
	}
}

// TestBuildMatchesQuickselect holds the presorted build to the
// quickselect reference. A split where no two centres tie at the median
// has one left set, which both builds pick; where they tie, the
// quickselect's choice is its own and the presorted build's is the index
// tie rule's. So every tree must equal the reference run with the tie
// rule, node array == and every leaf the same particles, and a tree
// built without a tie at any median must also equal the quickselect
// build's. Cosmo clouds tie at a median now and then (float32 centres
// repeat a few hundred times in 60 000), so most of them, and every
// uniform random cloud, must be tie-free or the quickselect comparison
// measures nothing; a lattice ties everywhere, so there the tree must be
// valid with the quickselect build's node count.
func TestBuildMatchesQuickselect(t *testing.T) {
	type cloud struct {
		name    string
		p       *data.PointCloud
		radius  float64
		lattice bool
	}
	var clouds []cloud
	sizes := []int{30_000, 60_000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			p := cosmoCloud(t, n, seed)
			clouds = append(clouds, cloud{fmt.Sprintf("cosmo n=%d seed=%d", n, seed), p, geom.DefaultSplatRadius(p), false})
		}
	}
	for _, n := range []int{1_000, 50_000} {
		clouds = append(clouds, cloud{fmt.Sprintf("random n=%d", n), randomCloud(n, int64(n)), 0.1, false})
	}
	for seed := int64(1); seed <= 3; seed++ {
		clouds = append(clouds, cloud{fmt.Sprintf("lattice seed=%d", seed), latticeCloud(3_000, seed), 0.5, true})
	}

	tieFree := 0
	for _, c := range clouds {
		got := BuildSphereBVH(c.p, c.radius, MedianSplit)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ties := 0
		requireSameTree(t, c.name+" (tie rule)", got, refBuild(c.p, c.radius, tieRule(&ties)))
		quick := refBuild(c.p, c.radius, nthElement)
		switch {
		case ties == 0 && c.lattice:
			t.Fatalf("%s: no split ties at its median: the tie rule goes unchecked", c.name)
		case ties == 0:
			requireSameTree(t, c.name+" (quickselect)", got, quick)
			tieFree++
		case len(got.nodes) != len(quick.nodes):
			t.Fatalf("%s: %d nodes, quickselect build %d", c.name, len(got.nodes), len(quick.nodes))
		case !c.lattice:
			t.Logf("%s: %d splits tie at the median", c.name, ties)
		}
	}
	if tieFree < len(clouds)/2 {
		t.Errorf("%d of %d clouds matched the quickselect build, want at least half", tieFree, len(clouds))
	}
}

// TestBuildNonFiniteCentres pins what the build does with centres that
// are not ordinary numbers: NaN of either sign, ±Inf, and a pair of
// spheres that differ only in a −0 and a +0. The presorted orders put
// negative NaNs first and positive ones last, and the build must still
// give every node the box the quickselect build gives it, NaN at both
// planes of an axis where its set holds a NaN, as the builtin min and
// max make it. No NaN sits on an axis a split can choose, and the zeros
// are twins, so the reference's boxes are determined. The tree must
// pass Validate. A NaN or infinite sphere gives every ray that tests it
// a NaN hit, which passes every comparison of the nearest-hit search
// (brute force's too), so T is checked on the rays that enter no leaf
// holding one: there Intersect must find brute force's nearest hit among
// the finite spheres.
func TestBuildNonFiniteCentres(t *testing.T) {
	const radius = 0.4
	p := randomCloud(2_000, 3)
	for i := range p.X {
		p.X[i] -= 10 // negative centres too, whose sort keys are flipped
		p.Y[i] -= 10
	}
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	special := [][3]float32{
		{nan, 3, 4}, {5, negNaN, 6}, {inf, 1, 2}, {2, -inf, 7},
		{negZero, 2, 9}, {0, 2, 9}, {3, negZero, 5},
	}
	n := p.Count()
	for k, c := range special {
		i := n - len(special) + k
		p.X[i], p.Y[i], p.Z[i] = c[0], c[1], c[2]
	}
	got := BuildSphereBVH(p, radius, MedianSplit)
	want := refBuild(p, radius, nthElement)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%d nodes, quickselect build %d", len(got.nodes), len(want.nodes))
	}
	nanPlanes := 0
	for i := range want.nodes {
		g, w := &got.nodes[i].bounds, &want.nodes[i].bounds
		if !sameBounds(g, w) {
			t.Fatalf("node %d: bounds %v, quickselect build %v", i, *g, *w)
		}
		for _, x := range w {
			if x != x {
				nanPlanes++
			}
		}
	}
	if nanPlanes == 0 {
		t.Fatal("no node box is NaN: the cloud no longer exercises NaN centres")
	}

	checked, hits := 0, 0
	for k := 0; k < 6; k++ {
		cam := orbitAt(finiteCloud(p).Bounds(), float64(k))
		c, h := requireFiniteHits(t, got, p, &cam, 40, 40)
		checked, hits = checked+c, hits+h
	}
	t.Logf("%d rays enter no leaf holding a non-finite centre, %d of them hits", checked, hits)
	if checked < 40*40 || hits < 100 {
		t.Errorf("%d rays checked, %d of them hits: too few to test the boxes", checked, hits)
	}
}

// finiteCloud returns the particles of p whose centres are finite.
func finiteCloud(p *data.PointCloud) *data.PointCloud {
	f := data.NewPointCloud(0)
	for i := 0; i < p.Count(); i++ {
		if isFinite(p.Pos(i)) {
			f.X, f.Y, f.Z = append(f.X, p.X[i]), append(f.Y, p.Y[i]), append(f.Z, p.Z[i])
		}
	}
	return f
}

// requireFiniteHits traces the w x h primary rays of cam through b, the
// tree over p, and requires each ray that enters no leaf holding a NaN
// or infinite centre to find brute force's nearest hit T among p's finite
// spheres. A non-finite sphere gives every ray that tests it a NaN hit,
// which passes every comparison of the nearest-hit search, brute force's
// included, so the other rays have no oracle. It returns how many rays it
// checked and how many of them hit.
func requireFiniteHits(t testing.TB, b *SphereBVH, p *data.PointCloud, cam *camera.Camera, w, h int) (checked, hits int) {
	t.Helper()
	var poisoned []*[6]float32
	for i := range b.nodes {
		nd := &b.nodes[i]
		for j := nd.left; nd.count > 0 && j < nd.left+nd.count; j++ {
			if !isFinite(v3(b.prims[j].c)) {
				poisoned = append(poisoned, &nd.bounds)
				break
			}
		}
	}
	finite := finiteCloud(p)
	gen := cam.NewRayGen(w, h)
rays:
	for i := 0; i < w*h; i++ {
		ray := gen.Ray(i%w, i/w)
		for _, pb := range poisoned {
			if enters(pb, ray.Origin, ray.Dir, cam.Near, cam.Far) {
				continue rays
			}
		}
		want, wantOK := bruteForce(finite, b.radius, ray.Origin, ray.Dir, cam.Near, cam.Far)
		got, ok := b.Intersect(ray.Origin, ray.Dir, cam.Near, cam.Far)
		if ok != wantOK || ok && got.T != want.T {
			t.Fatalf("pixel (%d,%d): got %+v %v, brute force over the finite spheres %+v %v", i%w, i/w, got, ok, want, wantOK)
		}
		checked++
		if ok {
			hits++
		}
	}
	return checked, hits
}

// enters reports whether the ray origin + t*dir, t in (t0, t1), passes
// through box b, ignoring NaN planes as the traversal does.
func enters(b *[6]float32, origin, dir vec.V3, t0, t1 float64) bool {
	ix, iy, iz := safeInv(dir.X), safeInv(dir.Y), safeInv(dir.Z)
	near := func(d float64, a int) (int, int) {
		if d < 0 {
			return 3 + a, a
		}
		return a, 3 + a
	}
	nx, fx := near(dir.X, 0)
	ny, fy := near(dir.Y, 1)
	nz, fz := near(dir.Z, 2)
	t0, t1 = clip(b[nx], b[fx], origin.X, ix, t0, t1)
	t0, t1 = clip(b[ny], b[fy], origin.Y, iy, t0, t1)
	t0, t1 = clip(b[nz], b[fz], origin.Z, iz, t0, t1)
	return t0 <= t1
}

// isFinite reports whether every coordinate of c is a finite number.
func isFinite(c vec.V3) bool {
	for _, x := range []float64{c.X, c.Y, c.Z} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
