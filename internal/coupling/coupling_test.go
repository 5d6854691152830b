package coupling

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/vec"
)

func testCloud(n int, seed int64) *data.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		p.SetPos(i, vec.New(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		p.SetVel(i, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	p.SpeedField()
	return p
}

func makePair(t *testing.T, ranks, rank int, steps int) PairSpec {
	t.Helper()
	var datasets []data.Dataset
	for s := 0; s < steps; s++ {
		datasets = append(datasets, testCloud(500, int64(s)+1))
	}
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Rank: rank, Ranks: ranks}, &proxy.MemSource{Data: datasets})
	if err != nil {
		t.Fatal(err)
	}
	viz, err := proxy.NewVizProxy(proxy.VizConfig{
		Rank: rank, Width: 48, Height: 48,
		Algorithm: "points", ImagesPerStep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return PairSpec{Sim: sim, Viz: viz}
}

func TestModeString(t *testing.T) {
	if Unified.String() != "unified" || Socket.String() != "socket" {
		t.Error("mode names wrong")
	}
}

func TestRunUnified(t *testing.T) {
	pair := makePair(t, 1, 0, 3)
	rep, err := RunUnified(context.Background(), pair.Sim, pair.Viz)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 3 {
		t.Errorf("steps = %d", rep.Steps)
	}
	if rep.BytesMoved != 0 {
		t.Errorf("unified mode moved %d bytes, want 0", rep.BytesMoved)
	}
	if len(rep.Viz.Results) != 3 {
		t.Errorf("viz rendered %d steps", len(rep.Viz.Results))
	}
	if rep.Wall <= 0 {
		t.Error("no wall time")
	}
}

func TestRunSocketPair(t *testing.T) {
	pair := makePair(t, 1, 0, 2)
	layout := filepath.Join(t.TempDir(), "layout")
	rep, err := RunSocketPair(context.Background(), pair.Sim, pair.Viz, layout, 0, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 2 || len(rep.Viz.Results) != 2 {
		t.Errorf("steps = %d, rendered = %d", rep.Steps, len(rep.Viz.Results))
	}
	if rep.BytesMoved == 0 {
		t.Error("socket mode moved no bytes")
	}
}

// The coupling mode must not change the rendered images: unified and
// socket runs of the same pair produce identical frames.
func TestModesProduceIdenticalImages(t *testing.T) {
	a := makePair(t, 1, 0, 1)
	b := makePair(t, 1, 0, 1)
	ra, err := RunUnified(context.Background(), a.Sim, a.Viz)
	if err != nil {
		t.Fatal(err)
	}
	layout := filepath.Join(t.TempDir(), "layout")
	rb, err := RunSocketPair(context.Background(), b.Sim, b.Viz, layout, 0, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fa := ra.Viz.LastFrame()
	fbm := rb.Viz.LastFrame()
	rmse, err := fb.RMSE(fa, fbm)
	if err != nil {
		t.Fatal(err)
	}
	if rmse != 0 {
		t.Errorf("coupling mode changed the image: RMSE = %v", rmse)
	}
}

func TestRunPairsUnified(t *testing.T) {
	pairs := []PairSpec{
		makePair(t, 3, 0, 2),
		makePair(t, 3, 1, 2),
		makePair(t, 3, 2, 2),
	}
	reports, err := RunPairs(pairs, Unified, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	total := 0
	for _, r := range reports {
		total += r.Viz.Results[0].Elements
	}
	// The three ranks partition 500 particles.
	if total != 500 {
		t.Errorf("ranks processed %d elements, want 500", total)
	}
}

func TestRunPairsSocket(t *testing.T) {
	pairs := []PairSpec{
		makePair(t, 2, 0, 1),
		makePair(t, 2, 1, 1),
	}
	layout := filepath.Join(t.TempDir(), "layout")
	reports, err := RunPairs(pairs, Socket, layout, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if r.BytesMoved == 0 {
			t.Errorf("pair %d moved no bytes", i)
		}
	}
}

func TestRunPairsValidation(t *testing.T) {
	if _, err := RunPairs(nil, Unified, "", nil); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, err := RunPairs([]PairSpec{makePair(t, 1, 0, 1)}, Socket, "", nil); err == nil {
		t.Error("socket mode without layout accepted")
	}
}
