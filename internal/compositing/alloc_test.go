package compositing

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestMergeIntoSteadyStateAllocs locks in the zero-allocation steady
// state of the depth-merge kernel on frames small enough for the serial
// branch (the parallel branch allocates its par closure by design).
func TestMergeIntoSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	dst := fb.New(64, 64) // 4096 px: the largest serial merge
	src := fb.New(64, 64)
	for i := range src.Depth {
		src.Depth[i] = float64(i%7) + 0.5
		src.Color[i] = vec.New(0.1, 0.2, 0.3)
	}
	merge := func() { mergeInto(dst, src) }
	merge()
	if allocs := testing.AllocsPerRun(50, merge); allocs > 0 {
		t.Errorf("steady-state merge allocates %.1f times per op, want 0", allocs)
	}
}

// TestCompositeSteadyAllocs locks in that the schedules run in the
// callers' frames: a warm direct send allocates nothing, and binary swap
// allocates only its region table.
func TestCompositeSteadyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	frames := randFrames(4, 64, 64, 5)
	for alg, want := range map[Algorithm]float64{DirectSend: 0, BinarySwap: 1} {
		composite := func() {
			if _, _, err := Composite(frames, alg); err != nil {
				t.Fatal(err)
			}
		}
		composite()
		if allocs := testing.AllocsPerRun(50, composite); allocs != want {
			t.Errorf("steady-state %v allocates %.1f times per op, want %v", alg, allocs, want)
		}
	}
}
