// Package analysis implements in-situ analysis operators — the
// non-rendering half of the paper's "analysis and visualization
// operations" (§III). Its first operator is the friends-of-friends (FOF)
// halo finder the paper's introduction motivates: "while the algorithm
// tracks very large numbers of particles, the science is particularly
// interested in the distribution of halos". Running FOF inside the
// visualization proxy turns the raw particle stream into the compact
// extract a cosmologist actually stores.
package analysis

import (
	"fmt"
	"math"
	"sort"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Halo is one friends-of-friends group.
type Halo struct {
	// ID is the group's index in descending-size order (0 = largest).
	ID int
	// Count is the number of member particles.
	Count int
	// Center is the mean member position.
	Center vec.V3
	// Velocity is the mean member velocity.
	Velocity vec.V3
	// Radius is the RMS member distance from Center.
	Radius float64
	// VelDisp is the 3-D velocity dispersion (RMS deviation from the
	// mean velocity).
	VelDisp float64
}

// FOFOptions configures the halo finder.
type FOFOptions struct {
	// LinkLength is the friends-of-friends linking length b: particles
	// closer than b are in the same group. <= 0 derives 0.2x the mean
	// inter-particle spacing, the standard cosmology choice.
	LinkLength float64
	// MinMembers drops groups smaller than this (default 8).
	MinMembers int
}

// FOF runs friends-of-friends over the cloud and returns the halos in
// descending size order. The implementation grids space at the linking
// length and unions neighbors with a path-compressed disjoint-set —
// O(N · 27 · cell occupancy) expected, exact (not approximate) linking.
func FOF(p *data.PointCloud, opt FOFOptions) ([]Halo, error) {
	n := p.Count()
	if n == 0 {
		return nil, nil
	}
	link := opt.LinkLength
	if link <= 0 {
		b := p.Bounds()
		vol := b.Size().X * b.Size().Y * b.Size().Z
		if vol <= 0 {
			return nil, fmt.Errorf("analysis: degenerate bounds, specify LinkLength")
		}
		link = 0.2 * math.Cbrt(vol/float64(n))
	}
	minMembers := opt.MinMembers
	if minMembers <= 0 {
		minMembers = 8
	}

	// Spatial hash grid with cell edge = link length: all neighbors
	// within link distance lie in the 27-cell neighborhood.
	bounds := p.Bounds()
	inv := 1 / link
	key := func(i int) [3]int32 {
		pos := p.Pos(i)
		return [3]int32{
			int32((pos.X - bounds.Min.X) * inv),
			int32((pos.Y - bounds.Min.Y) * inv),
			int32((pos.Z - bounds.Min.Z) * inv),
		}
	}
	cells := make(map[[3]int32][]int32, n/4+1)
	for i := 0; i < n; i++ {
		k := key(i)
		cells[k] = append(cells[k], int32(i))
	}

	ds := newDisjointSet(n)
	link2 := link * link
	for i := 0; i < n; i++ {
		pi := p.Pos(i)
		k := key(i)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					nk := [3]int32{k[0] + dx, k[1] + dy, k[2] + dz}
					for _, j := range cells[nk] {
						if int(j) <= i {
							continue // each pair once
						}
						d := pi.Sub(p.Pos(int(j)))
						if d.Dot(d) <= link2 {
							ds.union(i, int(j))
						}
					}
				}
			}
		}
	}

	// Gather groups.
	members := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := ds.find(i)
		members[r] = append(members[r], i)
	}
	halos := make([]Halo, 0)
	for _, m := range members {
		if len(m) < minMembers {
			continue
		}
		halos = append(halos, summarize(p, m))
	}
	sort.Slice(halos, func(a, b int) bool {
		if halos[a].Count != halos[b].Count {
			return halos[a].Count > halos[b].Count
		}
		// Deterministic tie-break by position.
		return halos[a].Center.X < halos[b].Center.X
	})
	for i := range halos {
		halos[i].ID = i
	}
	return halos, nil
}

func summarize(p *data.PointCloud, members []int) Halo {
	var cSum, vSum vec.V3
	for _, i := range members {
		cSum = cSum.Add(p.Pos(i))
		vSum = vSum.Add(p.Vel(i))
	}
	inv := 1 / float64(len(members))
	center := cSum.Scale(inv)
	vel := vSum.Scale(inv)
	var r2, dv2 float64
	for _, i := range members {
		r2 += p.Pos(i).Sub(center).Len2()
		dv2 += p.Vel(i).Sub(vel).Len2()
	}
	return Halo{
		Count:    len(members),
		Center:   center,
		Velocity: vel,
		Radius:   math.Sqrt(r2 * inv),
		VelDisp:  math.Sqrt(dv2 * inv),
	}
}

// disjointSet is a union-find with path compression and union by size.
type disjointSet struct {
	parent []int32
	size   []int32
}

func newDisjointSet(n int) *disjointSet {
	d := &disjointSet{
		parent: make([]int32, n),
		size:   make([]int32, n),
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

func (d *disjointSet) find(x int) int {
	root := x
	for d.parent[root] != int32(root) {
		root = int(d.parent[root])
	}
	for d.parent[x] != int32(root) {
		d.parent[x], x = int32(root), int(d.parent[x])
	}
	return root
}

func (d *disjointSet) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	d.size[ra] += d.size[rb]
}
