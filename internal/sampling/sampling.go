// Package sampling implements ETH's spatial-sampling operators (§IV-B):
// selecting a subset of a dataset before rendering to trade image quality
// for time, power, and energy. Three point-cloud strategies are provided
// — uniform random, strided, and stratified-by-cell — plus grid
// downsampling, so the sampling-method ablation in DESIGN.md can compare
// their RMSE cost at equal ratios.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/mempool"
)

// Method selects a point-sampling strategy.
type Method uint8

const (
	// Random keeps each particle independently with probability ratio.
	// This is the paper's spatial sampling: unbiased but noisy in sparse
	// regions.
	Random Method = iota
	// Stride keeps every k-th particle where k ~= 1/ratio. Deterministic
	// and cheap, but aliases any ordering structure in the input.
	Stride
	// Stratified overlays a coarse cell grid on the bounds and samples
	// within each cell proportionally, guaranteeing spatial coverage:
	// empty regions stay empty, dense regions are thinned evenly.
	Stratified
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Random:
		return "random"
	case Stride:
		return "stride"
	case Stratified:
		return "stratified"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// ParseMethod returns the method String names: random, stride or
// stratified.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{Random, Stride, Stratified} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sampling: unknown method %q (want random, stride, stratified)", s)
}

// Points returns a new cloud containing approximately ratio*Count()
// particles chosen by the given method. ratio is clamped to [0, 1];
// ratio >= 1 returns the input unchanged. Sampling is deterministic in
// seed.
func Points(p *data.PointCloud, ratio float64, m Method, seed int64) (*data.PointCloud, error) {
	if math.IsNaN(ratio) {
		return nil, fmt.Errorf("sampling: ratio is NaN")
	}
	if ratio >= 1 {
		return p, nil
	}
	if ratio < 0 {
		ratio = 0
	}
	switch m {
	case Random:
		return randomSample(p, ratio, seed), nil
	case Stride:
		return strideSample(p, ratio), nil
	case Stratified:
		return stratifiedSample(p, ratio, seed), nil
	default:
		return nil, fmt.Errorf("sampling: unknown method %v", m)
	}
}

func randomSample(p *data.PointCloud, ratio float64, seed int64) *data.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, 0, int(float64(p.Count())*ratio)+1)
	for i := 0; i < p.Count(); i++ {
		if rng.Float64() < ratio {
			idx = append(idx, i)
		}
	}
	return p.Select(idx)
}

func strideSample(p *data.PointCloud, ratio float64) *data.PointCloud {
	if ratio <= 0 {
		return p.Select(nil)
	}
	step := 1 / ratio
	idx := make([]int, 0, int(float64(p.Count())*ratio)+1)
	for f := 0.0; int(f) < p.Count(); f += step {
		idx = append(idx, int(f))
	}
	return p.Select(idx)
}

// Stratified sampling's scratch: everything but the sampled cloud, which
// goes to the caller, comes from these pools and goes back to them, so a
// warm sampler allocates only its output. A pooled generator is reseeded
// per call; Seed leaves it in the state rand.NewSource(seed) starts in.
var (
	int32Pool mempool.SlicePool[int32]
	intPool   mempool.SlicePool[int]
	rngPool   = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}
)

func stratifiedSample(p *data.PointCloud, ratio float64, seed int64) *data.PointCloud {
	if p.Count() == 0 || ratio <= 0 {
		return p.Select(nil)
	}
	// Aim for cells holding ~64 particles on average so per-cell counts
	// are statistically stable.
	cells := int(math.Cbrt(float64(p.Count()) / 64))
	if cells < 1 {
		cells = 1
	}
	b := p.Bounds()
	size := b.Size()
	// Guard degenerate axes.
	sx := math.Max(size.X, 1e-12)
	sy := math.Max(size.Y, 1e-12)
	sz := math.Max(size.Z, 1e-12)

	// Bucket by counting sort: key every particle, prefix-sum the cell
	// sizes, then fill members cell by cell in ascending particle order.
	n := p.Count()
	key := int32Pool.Get(n)
	start := int32Pool.Get(cells*cells*cells + 1)
	clear(start)
	for i := 0; i < n; i++ {
		pos := p.Pos(i)
		ci := cellIndex((pos.X-b.Min.X)/sx, cells)
		cj := cellIndex((pos.Y-b.Min.Y)/sy, cells)
		ck := cellIndex((pos.Z-b.Min.Z)/sz, cells)
		key[i] = int32(ci + cells*(cj+cells*ck))
		start[key[i]+1]++
	}
	largest := int32(0) // the widest cell sizes the permutation scratch
	for c := 1; c < len(start); c++ {
		largest = max(largest, start[c])
		start[c] += start[c-1]
	}
	members := int32Pool.Get(n)
	fill := int32Pool.Get(len(start) - 1)
	copy(fill, start)
	for i, c := range key {
		members[fill[c]] = int32(i)
		fill[c]++
	}

	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	// A cell keeps at most its share plus one (rounding up, or the one
	// probabilistic member), so this capacity is never outgrown.
	idx := intPool.Get(int(float64(n)*ratio) + len(start))[:0]
	perm := intPool.Get(int(largest))
	for c := 0; c+1 < len(start); c++ {
		cell := members[start[c]:start[c+1]]
		if len(cell) == 0 {
			continue
		}
		// Keep round(ratio * |cell|) with random selection inside the cell,
		// but never more than the cell holds.
		keep := int(math.Round(ratio * float64(len(cell))))
		if keep == 0 && rng.Float64() < ratio*float64(len(cell)) {
			keep = 1 // small cells keep a member probabilistically to stay unbiased
		}
		if keep > len(cell) {
			keep = len(cell)
		}
		// rng.Perm(len(cell)) without its slice: the same Intn draws in the
		// same order (Intn(1) included, and also when keep is 0), so the
		// sample is the one rand.Perm selects.
		for i := range cell {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		for _, j := range perm[:keep] {
			idx = append(idx, int(cell[j]))
		}
	}
	out := p.Select(idx)
	for _, s := range [][]int32{key, start, members, fill} {
		int32Pool.Put(s)
	}
	intPool.Put(idx)
	intPool.Put(perm)
	rngPool.Put(rng)
	return out
}

func cellIndex(frac float64, cells int) int {
	i := int(frac * float64(cells))
	if i >= cells {
		i = cells - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Grid returns a grid downsampled so that the retained vertex fraction is
// approximately ratio. The stride applied per axis is
// round((1/ratio)^(1/3)); ratio >= 1 returns the input.
func Grid(g *data.StructuredGrid, ratio float64) (*data.StructuredGrid, error) {
	if math.IsNaN(ratio) || ratio <= 0 {
		return nil, fmt.Errorf("sampling: grid ratio must be in (0, 1], got %v", ratio)
	}
	if ratio >= 1 {
		return g, nil
	}
	stride := int(math.Round(math.Cbrt(1 / ratio)))
	if stride < 2 {
		stride = 2
	}
	return g.Downsample(stride), nil
}
