package rt

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestScalarColorsErrorReleasesColors is a regression test for a color-
// table pool leak found by the poolleak analyzer: a missing color field
// used to error out of scalarColors without returning the freshly
// acquired table to colorPool. The test seeds the pool, drives the error
// path, and asserts the pool hands the same backing array back out —
// possible only if the error path released it. Single goroutine, so
// sync.Pool's per-P slots make the round trip deterministic — except
// under -race, whose sync.Pool drops Put items at random, so it skips
// there and scripts/check.sh asserts it in the non-race pass.
func TestScalarColorsErrorReleasesColors(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-instrumented sync.Pool drops Put items at random; identity asserted in the non-race pass")
	}
	p := data.NewPointCloud(16)
	for i := 0; i < 16; i++ {
		p.SetPos(i, vec.New(float64(i), 0, 0))
	}

	seed := colorPool.Get(p.Count())
	seedPtr := &seed[0]
	colorPool.Put(seed)

	if _, err := scalarColors(p, "no-such-field", 0, 0); err == nil {
		t.Fatal("scalarColors with a missing field should fail")
	}

	got := colorPool.Get(p.Count())
	defer colorPool.Put(got)
	if &got[0] != seedPtr {
		t.Errorf("color table not returned to the pool on the error path: got %p, want %p", &got[0], seedPtr)
	}
}
