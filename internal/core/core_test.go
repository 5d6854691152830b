package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

func haccSpec() MeasuredSpec {
	return MeasuredSpec{
		Workload:      HACCWorkload(5000, 2, 7),
		Algorithm:     "points",
		Width:         48,
		Height:        48,
		ImagesPerStep: 2,
		Ranks:         2,
	}
}

func TestRunMeasuredHACC(t *testing.T) {
	res, err := RunMeasured(haccSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 || res.RenderTime <= 0 {
		t.Error("no time recorded")
	}
	if res.Elements == 0 {
		t.Error("no elements recorded")
	}
	if len(res.Frames) != 2 {
		t.Errorf("frames = %d", len(res.Frames))
	}
	if res.BytesMoved != 0 {
		t.Error("unified mode moved bytes")
	}
}

func TestRunMeasuredSocketMode(t *testing.T) {
	spec := haccSpec()
	spec.Mode = coupling.Socket
	spec.LayoutPath = filepath.Join(t.TempDir(), "layout")
	res, err := RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesMoved == 0 {
		t.Error("socket mode moved no bytes")
	}
}

// TestRunMeasuredKeepsRankFrames: the end-of-run composite merges into a
// frame of its own, so Frames still holds each rank's image and a
// brute-force nearest-fragment merge of them reproduces the composite.
func TestRunMeasuredKeepsRankFrames(t *testing.T) {
	for _, ranks := range []int{2, 3} {
		spec := haccSpec()
		spec.Ranks = ranks
		res, err := RunMeasured(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frames) != ranks {
			t.Fatalf("%d ranks: frames = %d", ranks, len(res.Frames))
		}
		if res.Composited == res.Frames[0] {
			t.Fatalf("%d ranks: the composite is rank 0's frame", ranks)
		}
		if res.Composited.CoveredPixels() <= res.Frames[0].CoveredPixels() {
			t.Errorf("%d ranks: the composite covers no more than rank 0's frame", ranks)
		}
		for i := range res.Composited.Depth {
			near := res.Frames[0]
			for _, f := range res.Frames[1:] {
				if f.Depth[i] < near.Depth[i] {
					near = f
				}
			}
			if res.Composited.Color[i] != near.Color[i] || math.Float64bits(res.Composited.Depth[i]) != math.Float64bits(near.Depth[i]) {
				t.Fatalf("%d ranks: pixel %d is %v at depth %v, want %v at %v", ranks, i,
					res.Composited.Color[i], res.Composited.Depth[i], near.Color[i], near.Depth[i])
			}
		}
	}
}

// TestRunMeasuredUnsupervisedHonoursCtx: without a supervisor, a
// cancelled Ctx still drains both couplings with a shutdown error.
func TestRunMeasuredUnsupervisedHonoursCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []coupling.Mode{coupling.Unified, coupling.Socket} {
		spec := haccSpec()
		spec.Mode = mode
		spec.LayoutPath = filepath.Join(t.TempDir(), "layout")
		spec.Ctx = ctx
		if _, err := RunMeasured(spec); !errors.Is(err, supervise.ErrShutdown) {
			t.Errorf("%s: err = %v, want one wrapping supervise.ErrShutdown", mode, err)
		}
	}
}

func TestRunMeasuredXRAGE(t *testing.T) {
	spec := MeasuredSpec{
		Workload:      XRAGEWorkload(24, 16, 16, 1, 3),
		Algorithm:     "ray-iso",
		Width:         48,
		Height:        48,
		ImagesPerStep: 1,
		Ranks:         1,
	}
	res, err := RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames[0].CoveredPixels() == 0 {
		t.Error("xrage render empty")
	}
}

func TestRunMeasuredSampling(t *testing.T) {
	full := haccSpec()
	fullRes, err := RunMeasured(full)
	if err != nil {
		t.Fatal(err)
	}
	sampled := haccSpec()
	sampled.SamplingRatio = 0.25
	sampledRes, err := RunMeasured(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if sampledRes.Elements >= fullRes.Elements {
		t.Errorf("sampling kept %d of %d elements", sampledRes.Elements, fullRes.Elements)
	}
}

func TestRunMeasuredValidation(t *testing.T) {
	bad := haccSpec()
	bad.Algorithm = ""
	if _, err := RunMeasured(bad); err == nil {
		t.Error("missing algorithm accepted")
	}
	bad = haccSpec()
	bad.Width = 0
	if _, err := RunMeasured(bad); err == nil {
		t.Error("zero width accepted")
	}
	bad = haccSpec()
	bad.Mode = coupling.Socket
	if _, err := RunMeasured(bad); err == nil {
		t.Error("socket without layout accepted")
	}
	bad = haccSpec()
	bad.Workload.Steps = 0
	if _, err := RunMeasured(bad); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestDiskWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s0.ethd")
	wl := HACCWorkload(100, 1, 1)
	ds, err := wl.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	dwl, err := DiskWorkload("replay", path)
	if err != nil {
		t.Fatal(err)
	}
	spec := MeasuredSpec{
		Workload:  dwl,
		Algorithm: "gsplat",
		Width:     32, Height: 32,
		ImagesPerStep: 1,
	}
	res, err := RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 100 {
		t.Errorf("disk replay elements = %d", res.Elements)
	}
	if _, err := DiskWorkload("none"); err == nil {
		t.Error("empty disk workload accepted")
	}
}

// Sampling at a lower ratio must degrade the image relative to the full
// render — the Table II accuracy relationship, measured end to end.
func TestMeasuredSamplingRMSEMonotone(t *testing.T) {
	render := func(ratio float64) *fb.Frame {
		spec := MeasuredSpec{
			Workload:      HACCWorkload(20000, 1, 3),
			Algorithm:     "points",
			Width:         64,
			Height:        64,
			ImagesPerStep: 1,
			SamplingRatio: ratio,
		}
		res, err := RunMeasured(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Frames[0]
	}
	ref := render(1.0)
	rmse25, err := fb.RMSE(ref, render(0.25))
	if err != nil {
		t.Fatal(err)
	}
	rmse75, err := fb.RMSE(ref, render(0.75))
	if err != nil {
		t.Fatal(err)
	}
	if rmse25 <= rmse75 {
		t.Errorf("RMSE(0.25)=%v should exceed RMSE(0.75)=%v", rmse25, rmse75)
	}
	if rmse25 == 0 {
		t.Error("sampling at 0.25 changed nothing")
	}
}
