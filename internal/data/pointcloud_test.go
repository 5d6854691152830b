package data

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/vec"
)

func randomCloud(n int, seed int64) *PointCloud {
	rng := rand.New(rand.NewSource(seed))
	p := NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		p.SetPos(i, vec.New(rng.Float64()*10, rng.Float64()*20, rng.Float64()*5))
		p.SetVel(i, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	return p
}

func TestPointCloudBasics(t *testing.T) {
	p := NewPointCloud(3)
	if p.Kind() != KindPointCloud {
		t.Errorf("kind = %v", p.Kind())
	}
	if p.Count() != 3 {
		t.Errorf("count = %d", p.Count())
	}
	p.SetPos(1, vec.New(1, 2, 3))
	if got := p.Pos(1); got != vec.New(1, 2, 3) {
		t.Errorf("pos = %v", got)
	}
	p.SetVel(2, vec.New(3, 4, 0))
	if got := p.Vel(2); got != vec.New(3, 4, 0) {
		t.Errorf("vel = %v", got)
	}
	if p.Bytes() != 3*(8+24) {
		t.Errorf("bytes = %d", p.Bytes())
	}
}

func TestPointCloudBoundsCaching(t *testing.T) {
	p := NewPointCloud(2)
	p.SetPos(0, vec.New(0, 0, 0))
	p.SetPos(1, vec.New(1, 2, 3))
	b := p.Bounds()
	if b.Min != vec.New(0, 0, 0) || b.Max != vec.New(1, 2, 3) {
		t.Fatalf("bounds = %+v", b)
	}
	// SetPos invalidates the cache.
	p.SetPos(1, vec.New(5, 5, 5))
	if got := p.Bounds().Max; got != vec.New(5, 5, 5) {
		t.Errorf("bounds after SetPos = %v", got)
	}
	// Direct mutation requires explicit invalidation.
	p.X[0] = -10
	p.InvalidateBounds()
	if got := p.Bounds().Min.X; got != -10 {
		t.Errorf("bounds after InvalidateBounds = %v", got)
	}
}

func TestPointCloudFields(t *testing.T) {
	p := NewPointCloud(4)
	p.Fields = append(p.Fields, Field{Name: "mass", Values: []float32{1, 2, 3, 4}})
	f, err := p.Field("mass")
	if err != nil {
		t.Fatal(err)
	}
	if f.Values[2] != 3 {
		t.Errorf("field value = %v", f.Values[2])
	}
	if _, err := p.Field("nope"); !errors.Is(err, ErrFieldMissing) {
		t.Errorf("missing field err = %v", err)
	}
	lo, hi := f.MinMax()
	if lo != 1 || hi != 4 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	var empty Field
	if lo, hi := empty.MinMax(); lo != 0 || hi != 0 {
		t.Errorf("empty MinMax = %v %v", lo, hi)
	}
}

func TestPointCloudSelect(t *testing.T) {
	p := randomCloud(10, 1)
	p.Fields = append(p.Fields, Field{Name: "m", Values: []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	sel := p.Select([]int{9, 0, 5})
	if sel.Count() != 3 {
		t.Fatalf("count = %d", sel.Count())
	}
	if sel.IDs[0] != 9 || sel.IDs[1] != 0 || sel.IDs[2] != 5 {
		t.Errorf("IDs = %v", sel.IDs)
	}
	f, _ := sel.Field("m")
	if f.Values[0] != 9 || f.Values[2] != 5 {
		t.Errorf("selected field = %v", f.Values)
	}
	if sel.Pos(1) != p.Pos(0) {
		t.Errorf("selected pos mismatch")
	}
}

func TestPointCloudPartitionPreservesParticles(t *testing.T) {
	p := randomCloud(1000, 3)
	for _, n := range []int{1, 2, 3, 7} {
		pieces := p.Partition(n)
		if len(pieces) != n {
			t.Fatalf("Partition(%d) returned %d pieces", n, len(pieces))
		}
		total := 0
		seen := map[int64]bool{}
		for _, piece := range pieces {
			pc := piece.(*PointCloud)
			total += pc.Count()
			for _, id := range pc.IDs {
				if seen[id] {
					t.Fatalf("particle %d in two pieces", id)
				}
				seen[id] = true
			}
		}
		if total != p.Count() {
			t.Fatalf("Partition(%d): %d particles, want %d", n, total, p.Count())
		}
	}
}

func TestPointCloudPartitionIsSpatial(t *testing.T) {
	// Longest axis is Y (range 20). Every slab's Y range must not overlap
	// the next slab's except possibly at boundaries.
	p := randomCloud(500, 4)
	pieces := p.Partition(4)
	prevMax := -1e30
	for _, piece := range pieces {
		pc := piece.(*PointCloud)
		if pc.Count() == 0 {
			continue
		}
		b := pc.Bounds()
		if b.Min.Y < prevMax-1e-6 {
			t.Fatalf("slab min %v < previous slab max %v", b.Min.Y, prevMax)
		}
		prevMax = b.Max.Y
	}
}

func TestSpeedField(t *testing.T) {
	p := NewPointCloud(2)
	p.SetVel(0, vec.New(3, 4, 0))
	p.SetVel(1, vec.New(0, 0, 2))
	vals := p.SpeedField()
	if vals[0] != 5 || vals[1] != 2 {
		t.Errorf("speeds = %v", vals)
	}
	// Recompute replaces, not duplicates.
	p.SetVel(0, vec.New(6, 8, 0))
	vals = p.SpeedField()
	if vals[0] != 10 {
		t.Errorf("recomputed speed = %v", vals[0])
	}
	count := 0
	for _, f := range p.Fields {
		if f.Name == "speed" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("speed fields = %d, want 1", count)
	}
}

// Property: partition of any cloud into any k preserves the multiset of IDs.
func TestPartitionPreservesIDsProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%8 + 1
		p := randomCloud(n, seed)
		pieces := p.Partition(k)
		got := map[int64]int{}
		for _, piece := range pieces {
			for _, id := range piece.(*PointCloud).IDs {
				got[id]++
			}
		}
		if len(got) != n {
			return false
		}
		for _, c := range got {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindPointCloud.String() != "pointcloud" {
		t.Error(KindPointCloud.String())
	}
	if KindStructuredGrid.String() != "structuredgrid" {
		t.Error(KindStructuredGrid.String())
	}
	if Kind(99).String() != "kind(99)" {
		t.Error(Kind(99).String())
	}
}
