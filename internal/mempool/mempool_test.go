package mempool

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/raceflag"
)

func TestAcquireFrameUncleared(t *testing.T) {
	f := AcquireFrameUncleared(16, 8)
	if f.W != 16 || f.H != 8 || len(f.Color) != 16*8 || len(f.Depth) != 16*8 {
		t.Fatalf("got %dx%d with %d/%d pixels, want 16x8", f.W, f.H, len(f.Color), len(f.Depth))
	}
	ReleaseFrame(f)
	// Distinct dimensions draw from distinct pools.
	h := AcquireFrameUncleared(8, 8)
	if h.W != 8 || h.H != 8 {
		t.Fatalf("got %dx%d, want 8x8", h.W, h.H)
	}
	ReleaseFrame(h)
	ReleaseFrame(nil) // no-op
}

func TestSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	// Warm the pool.
	ReleaseFrame(AcquireFrameUncleared(32, 32))

	if n := testing.AllocsPerRun(100, func() {
		f := AcquireFrameUncleared(32, 32)
		ReleaseFrame(f)
	}); n != 0 {
		t.Errorf("AcquireFrameUncleared steady state: %v allocs/op, want 0", n)
	}
}
