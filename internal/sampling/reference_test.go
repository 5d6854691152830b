package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
)

// referenceStratified is the parent's stratifiedSample, kept as the
// reference the counting-sort sampler is held to: map buckets filled by
// append, and rand.Perm per cell.
func referenceStratified(p *data.PointCloud, ratio float64, seed int64) *data.PointCloud {
	if p.Count() == 0 || ratio <= 0 {
		return p.Select(nil)
	}
	cells := int(math.Cbrt(float64(p.Count()) / 64))
	if cells < 1 {
		cells = 1
	}
	b := p.Bounds()
	size := b.Size()
	sx := math.Max(size.X, 1e-12)
	sy := math.Max(size.Y, 1e-12)
	sz := math.Max(size.Z, 1e-12)

	buckets := make(map[int][]int)
	for i := 0; i < p.Count(); i++ {
		pos := p.Pos(i)
		ci := cellIndex((pos.X-b.Min.X)/sx, cells)
		cj := cellIndex((pos.Y-b.Min.Y)/sy, cells)
		ck := cellIndex((pos.Z-b.Min.Z)/sz, cells)
		key := ci + cells*(cj+cells*ck)
		buckets[key] = append(buckets[key], i)
	}
	rng := rand.New(rand.NewSource(seed))
	var idx []int
	for key := 0; key < cells*cells*cells; key++ {
		members, ok := buckets[key]
		if !ok {
			continue
		}
		keep := int(math.Round(ratio * float64(len(members))))
		if keep == 0 && ratio > 0 && len(members) > 0 && rng.Float64() < ratio*float64(len(members)) {
			keep = 1
		}
		if keep > len(members) {
			keep = len(members)
		}
		perm := rng.Perm(len(members))
		for _, j := range perm[:keep] {
			idx = append(idx, members[j])
		}
	}
	return p.Select(idx)
}

// cosmoClouds caches cosmoCloud's results: generating 100 000 particles
// costs more than every sampling call the tests make on them.
var cosmoClouds = map[int]*data.PointCloud{}

// cosmoCloud is a clustered cloud of n particles with a speed field, the
// shape of data the cosmo workloads sample. Tests must not modify it.
func cosmoCloud(t testing.TB, n int) *data.PointCloud {
	t.Helper()
	if p := cosmoClouds[n]; p != nil {
		return p
	}
	params := cosmo.DefaultParams()
	params.Particles = n
	params.Halos = 1 + n/5000
	p, err := cosmo.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	p.SpeedField()
	cosmoClouds[n] = p
	return p
}

// sameCloud holds got to want exactly: the same particles in the same
// order, with the same positions, velocities and field values.
func sameCloud(t *testing.T, what string, got, want *data.PointCloud) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: kept %d particles, the reference keeps %d", what, got.Count(), want.Count())
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || got.Pos(i) != want.Pos(i) || got.Vel(i) != want.Vel(i) {
			t.Fatalf("%s: particle %d is id %d at %v, the reference has id %d at %v",
				what, i, got.IDs[i], got.Pos(i), want.IDs[i], want.Pos(i))
		}
	}
	if len(got.Fields) != len(want.Fields) {
		t.Fatalf("%s: %d fields, want %d", what, len(got.Fields), len(want.Fields))
	}
	for f := range want.Fields {
		if got.Fields[f].Name != want.Fields[f].Name {
			t.Fatalf("%s: field %d is %q, want %q", what, f, got.Fields[f].Name, want.Fields[f].Name)
		}
		for i, v := range want.Fields[f].Values {
			if got.Fields[f].Values[i] != v {
				t.Fatalf("%s: field %q value %d = %v, want %v", what, want.Fields[f].Name, i, got.Fields[f].Values[i], v)
			}
		}
	}
}

// TestStratifiedMatchesReference is the differential net under the
// counting-sort sampler: sample for sample what the map-and-Perm sampler
// selects, because every RNG draw is the same value in the same place.
// The 10-particle clouds and the 0.01 ratio reach the keep == 0 cells,
// where Perm still draws; the flat cloud collapses two axes into one cell
// layer each.
func TestStratifiedMatchesReference(t *testing.T) {
	clouds := map[string]*data.PointCloud{
		"10":      cosmoCloud(t, 10),
		"1000":    cosmoCloud(t, 1_000),
		"100000":  cosmoCloud(t, 100_000),
		"uniform": testCloud(5_000),
	}
	flat := testCloud(3_000)
	for i := range flat.Y {
		flat.Y[i], flat.Z[i] = 2.5, -1
	}
	flat.InvalidateBounds()
	clouds["flat"] = flat

	for name, p := range clouds {
		seeds := []int64{1, 2, 3, 4, 5}
		if p.Count() > 10_000 && testing.Short() {
			seeds = seeds[:1]
		}
		for _, ratio := range []float64{0.01, 0.1, 0.5, 0.9} {
			for _, seed := range seeds {
				got, err := Points(p, ratio, Stratified, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameCloud(t, fmt.Sprintf("cloud %s ratio %g seed %d", name, ratio, seed),
					got, referenceStratified(p, ratio, seed))
			}
		}
	}
}

// TestStratifiedAllocsIndependentOfCells is the gate behind "sampling
// without the map": a fresh Sampler allocates a fixed set of arrays (keys,
// cell starts and cursors, members, permutation scratch, the generator,
// the index list and its cloud), however many cells the cloud spreads
// over — 8 cells at 1 000 particles, 1 331 at 100 000.
func TestStratifiedAllocsIndependentOfCells(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	var counts []float64
	for _, n := range []int{1_000, 100_000} {
		p := cosmoCloud(t, n)
		p.Bounds() // the lazy bounds cache is the cloud's, not the sampler's
		counts = append(counts, testing.AllocsPerRun(5, func() {
			var s Sampler
			if _, err := s.Points(p, 0.5, Stratified, 1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 20 {
		t.Errorf("a fresh Sampler allocates %.0f times at 1 000 particles and %.0f at 100 000, want the same count, at most 20",
			counts[0], counts[1])
	}
}

// TestStratifiedWarmAllocs holds a warm Sampler to nothing: keys, cell
// starts and cursors, members, the index list, the permutation scratch,
// the generator and the sampled cloud are all its own, and a sample no
// larger than the last one fits in them.
func TestStratifiedWarmAllocs(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		p := cosmoCloud(t, n)
		p.Bounds()
		var s Sampler
		sample := func() {
			if _, err := s.Points(p, 0.5, Stratified, 1); err != nil {
				t.Fatal(err)
			}
		}
		sample()
		if got := testing.AllocsPerRun(5, sample); got != 0 {
			t.Errorf("n=%d: a warm Sampler allocates %.0f times, want 0", n, got)
		}
	}
}
