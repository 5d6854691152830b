package analysis

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

// plantedCloud builds a cloud with k tight clusters plus sparse noise.
func plantedCloud(k, perCluster, noise int, seed int64) (*data.PointCloud, []vec.V3) {
	rng := rand.New(rand.NewSource(seed))
	total := k*perCluster + noise
	p := data.NewPointCloud(total)
	centers := make([]vec.V3, k)
	idx := 0
	for c := 0; c < k; c++ {
		// Centers far apart on a coarse lattice.
		centers[c] = vec.New(float64(c%3)*40+10, float64((c/3)%3)*40+10, float64(c/9)*40+10)
		for m := 0; m < perCluster; m++ {
			p.IDs[idx] = int64(idx)
			p.SetPos(idx, centers[c].Add(vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.3)))
			p.SetVel(idx, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(50))
			idx++
		}
	}
	for idx < total {
		p.IDs[idx] = int64(idx)
		p.SetPos(idx, vec.New(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100))
		idx++
	}
	return p, centers
}

func TestFOFFindsPlantedClusters(t *testing.T) {
	p, centers := plantedCloud(5, 100, 200, 1)
	halos, err := FOF(p, FOFOptions{LinkLength: 1.5, MinMembers: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 5 {
		t.Fatalf("found %d halos, want 5", len(halos))
	}
	// Every planted center must be matched by a found halo.
	for _, c := range centers {
		best := math.Inf(1)
		for _, h := range halos {
			if d := h.Center.Sub(c).Len(); d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Errorf("planted center %v unmatched (nearest %v away)", c, best)
		}
	}
	// Sizes ~100 each.
	for _, h := range halos {
		if h.Count < 90 || h.Count > 130 {
			t.Errorf("halo size %d, want ~100", h.Count)
		}
		if h.Radius <= 0 || h.Radius > 2 {
			t.Errorf("halo radius %v implausible", h.Radius)
		}
		if h.VelDisp <= 0 {
			t.Error("zero velocity dispersion for random velocities")
		}
	}
}

func TestFOFOrderingAndIDs(t *testing.T) {
	p, _ := plantedCloud(3, 50, 0, 2)
	// Make cluster sizes distinct by dropping particles from the tail.
	keep := make([]int, 50+40+30) // 50, 40, 30 members
	for i := range keep {
		keep[i] = i
	}
	trimmed := p.Select(keep)
	halos, err := FOF(trimmed, FOFOptions{LinkLength: 1.5, MinMembers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 3 {
		t.Fatalf("halos = %d", len(halos))
	}
	for i := 1; i < len(halos); i++ {
		if halos[i].Count > halos[i-1].Count {
			t.Error("halos not sorted by size")
		}
	}
	for i, h := range halos {
		if h.ID != i {
			t.Errorf("halo %d has ID %d", i, h.ID)
		}
	}
}

func TestFOFMinMembersFilters(t *testing.T) {
	p, _ := plantedCloud(2, 30, 0, 3)
	halos, err := FOF(p, FOFOptions{LinkLength: 1.5, MinMembers: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 0 {
		t.Errorf("min-members filter kept %d halos", len(halos))
	}
}

func TestFOFEmptyAndDegenerate(t *testing.T) {
	halos, err := FOF(data.NewPointCloud(0), FOFOptions{})
	if err != nil || halos != nil {
		t.Errorf("empty cloud: %v, %v", halos, err)
	}
	// All particles at one point with no explicit link length: degenerate
	// bounds must error rather than divide by zero.
	p := data.NewPointCloud(10)
	if _, err := FOF(p, FOFOptions{}); err == nil {
		t.Error("degenerate bounds accepted without link length")
	}
	// With explicit link length it forms one group.
	halos, err = FOF(p, FOFOptions{LinkLength: 1, MinMembers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) != 1 || halos[0].Count != 10 {
		t.Errorf("coincident particles: %+v", halos)
	}
}

func TestFOFDefaultLinkLength(t *testing.T) {
	p, _ := plantedCloud(4, 80, 100, 4)
	halos, err := FOF(p, FOFOptions{MinMembers: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) < 3 {
		t.Errorf("default link length found only %d halos", len(halos))
	}
}

// FOF on the cosmo generator must recover a halo population of the
// planted order of magnitude — the cross-module validation that the
// synthetic universe really contains findable halos.
func TestFOFOnCosmoGenerator(t *testing.T) {
	params := cosmo.Params{
		Particles: 60_000, BoxSize: 60,
		Halos: 25, HaloFraction: 0.7, Seed: 5,
	}
	cloud, err := cosmo.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	halos, err := FOF(cloud, FOFOptions{MinMembers: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(halos) < 10 || len(halos) > 80 {
		t.Errorf("found %d halos for 25 planted", len(halos))
	}
	// The biggest halo should be a sizable fraction of the clustered mass.
	if halos[0].Count < 500 {
		t.Errorf("largest halo only %d members", halos[0].Count)
	}
}

func TestDisjointSetInvariants(t *testing.T) {
	d := newDisjointSet(10)
	d.union(0, 1)
	d.union(1, 2)
	d.union(5, 6)
	if d.find(0) != d.find(2) {
		t.Error("transitive union broken")
	}
	if d.find(0) == d.find(5) {
		t.Error("separate sets merged")
	}
	if d.find(9) != 9 {
		t.Error("singleton moved")
	}
	// Idempotent union.
	d.union(0, 2)
	if d.find(1) != d.find(2) {
		t.Error("repeated union broke set")
	}
}

func BenchmarkFOF(b *testing.B) {
	p, _ := plantedCloud(20, 500, 10_000, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FOF(p, FOFOptions{LinkLength: 1.5}); err != nil {
			b.Fatal(err)
		}
	}
}
