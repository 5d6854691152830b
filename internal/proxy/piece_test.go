package proxy

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
)

// gridSteps is a two-step source over n x 6 x 5 grids whose values change
// from step to step.
func gridSteps(n int) *MemSource {
	src := &MemSource{}
	for step := 0; step < 2; step++ {
		g := data.NewStructuredGrid(n, 6, 5)
		vals := make([]float32, g.Count())
		for i := range vals {
			vals[i] = float32(i%97 + 100*step)
		}
		g.Fields = append(g.Fields, data.Field{Name: "temperature", Values: vals})
		src.Data = append(src.Data, g)
	}
	return src
}

// TestStepDataServesTheRanksPiece holds StepData to the contract it
// documents: each step's dataset is what Partition(Ranks)[Rank] holds,
// and the next StepData may reuse its arrays.
func TestStepDataServesTheRanksPiece(t *testing.T) {
	src := gridSteps(21)
	sp, err := NewSimProxy(SimConfig{Rank: 1, Ranks: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	var first *float32
	for step := 0; step < 2; step++ {
		ds, err := sp.StepData(step)
		if err != nil {
			t.Fatal(err)
		}
		got := ds.(*data.StructuredGrid)
		want := src.Data[step].Partition(2)[1].(*data.StructuredGrid)
		if got.NX != want.NX || got.NY != want.NY || got.NZ != want.NZ || got.Origin != want.Origin {
			t.Fatalf("step %d: piece %dx%dx%d at %v, want %dx%dx%d at %v", step,
				got.NX, got.NY, got.NZ, got.Origin, want.NX, want.NY, want.NZ, want.Origin)
		}
		for i, v := range want.Fields[0].Values {
			if got.Fields[0].Values[i] != v {
				t.Fatalf("step %d: value %d = %v, want %v", step, i, got.Fields[0].Values[i], v)
			}
		}
		if step == 0 {
			first = &got.Fields[0].Values[0]
		} else if &got.Fields[0].Values[0] != first {
			t.Error("step 1's piece did not recycle step 0's arrays")
		}
	}
	// A one-vertex grid has nothing to split: rank 1 has no piece.
	lone, err := NewSimProxy(SimConfig{Rank: 1, Ranks: 2},
		&MemSource{Data: []data.Dataset{data.NewStructuredGrid(1, 1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.StepData(0); err == nil {
		t.Error("rank 1 of an unsplittable grid got a piece")
	}
}

// TestStepDataWarmAllocs is the rank-slab gate at the proxy: once warm, a
// step allocates only its journal detail string — nothing that grows with
// the grid, so not the piece and not the pieces of other ranks.
func TestStepDataWarmAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	var counts []float64
	for _, n := range []int{21, 201} {
		sp, err := NewSimProxy(SimConfig{Rank: 1, Ranks: 2}, gridSteps(n))
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		next := func() {
			if _, err := sp.StepData(step % 2); err != nil {
				t.Fatal(err)
			}
			step++
		}
		next()
		counts = append(counts, testing.AllocsPerRun(20, next))
	}
	if counts[0] != counts[1] || counts[0] > 4 {
		t.Errorf("a warm StepData allocates %.0f times on a 21-wide grid and %.0f on a 201-wide one, want the same count, at most 4",
			counts[0], counts[1])
	}
}
