package experiments

import (
	"strings"
	"testing"
)

// Shape assertions here are the acceptance tests of the reproduction:
// each test checks the qualitative claim the paper's table/figure makes.

func TestTable1Ordering(t *testing.T) {
	res, err := Table1(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := res.Series["time"] // raycast, gsplat, points
	if !(times[1] < times[2] && times[2] < times[0]) {
		t.Errorf("Table I ordering wrong: ray=%.0f gs=%.0f pts=%.0f", times[0], times[1], times[2])
	}
	pw := res.Series["powerKW"]
	for _, p := range pw {
		if p < 45 || p > 65 {
			t.Errorf("power %v kW outside ~55 kW band", p)
		}
	}
	if !strings.Contains(res.Table.String(), "Raycasting") {
		t.Error("table missing algorithm names")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range haccAlgorithms {
		rmse := res.Series[alg+"/rmse"]   // ratios 0.75, 0.5, 0.25
		saved := res.Series[alg+"/saved"] // same order
		if len(rmse) != 3 || len(saved) != 3 {
			t.Fatalf("%s: series lengths %d %d", alg, len(rmse), len(saved))
		}
		// RMSE grows as sampling gets more aggressive.
		if !(rmse[0] <= rmse[1] && rmse[1] <= rmse[2]) {
			t.Errorf("%s: RMSE not monotone: %v", alg, rmse)
		}
		if rmse[2] <= 0 {
			t.Errorf("%s: RMSE at 0.25 is zero", alg)
		}
		// Energy saved grows as sampling gets more aggressive.
		if !(saved[0] < saved[1] && saved[1] < saved[2]) {
			t.Errorf("%s: energy saved not monotone: %v", alg, saved)
		}
		if saved[2] < 10 || saved[2] > 80 {
			t.Errorf("%s: energy saved at 0.25 = %v%%, want ~40-50%%", alg, saved[2])
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Geometry methods: near-linear growth (>= 2x for 4x data). Raycast:
	// sub-linear (< 2x).
	if g := res.Series["gsplat"][3]; g < 2 {
		t.Errorf("gsplat growth %v not near-linear", g)
	}
	if p := res.Series["points"][3]; p < 2 {
		t.Errorf("points growth %v not near-linear", p)
	}
	if r := res.Series["raycast"][3]; r >= 2 {
		t.Errorf("raycast growth %v not sub-linear", r)
	}
	// Normalization: first entry is 1.
	for _, alg := range haccAlgorithms {
		if res.Series[alg][0] != 1 {
			t.Errorf("%s not normalized", alg)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"gsplat", "points"} {
		times := res.Series[alg+"/time"] // ratios 0.25, 0.5, 0.75, 1.0
		if !(times[0] < times[3]) {
			t.Errorf("%s: sampling did not cut time: %v", alg, times)
		}
		dyn := res.Series[alg+"/dyn"]
		drop := 1 - dyn[0]/dyn[3]
		if drop < 0.2 || drop > 0.6 {
			t.Errorf("%s: dynamic power drop at 0.25 = %.0f%%, want ~39%%", alg, drop*100)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range haccAlgorithms {
		times := res.Series[alg+"/time"] // 200, 400
		speedup := times[0] / times[1]
		if speedup > 1.95 {
			t.Errorf("%s: strong scaling too good (%.2fx)", alg, speedup)
		}
		power := res.Series[alg+"/power"]
		if ratio := power[0] / power[1]; ratio < 0.4 || ratio > 0.65 {
			t.Errorf("%s: 200-node power %.0f%% of 400-node", alg, ratio*100)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := res.Series["time"] // tight, intercore, internode
	if !(times[1] < times[0] && times[1] < times[2]) {
		t.Errorf("intercore should win: tight=%.0f intercore=%.0f internode=%.0f",
			times[0], times[1], times[2])
	}
	energy := res.Series["energy"]
	if !(energy[1] < energy[0] && energy[1] < energy[2]) {
		t.Errorf("intercore energy should win: %v", energy)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := res.Series["time"] // vtk, ray
	if times[0] <= times[1] {
		t.Errorf("vtk %.1f should be slower than raycast %.1f", times[0], times[1])
	}
	power := res.Series["power"]
	if power[0] >= power[1] {
		t.Errorf("vtk power %.0f should be below raycast %.0f", power[0], power[1])
	}
	energy := res.Series["energy"]
	if energy[0] <= energy[1] {
		t.Errorf("vtk energy should exceed raycast: %v", energy)
	}
}

func TestFig13Shape(t *testing.T) {
	res, err := Fig13(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	vtk := res.Series["vtk-iso"] // small, medium, large, growth
	ray := res.Series["ray-iso"]
	if vtk[3] < 3 || vtk[3] > 9 {
		t.Errorf("vtk growth %.1fx, want ~5.8x", vtk[3])
	}
	if ray[3] < 1.05 || ray[3] > 1.8 {
		t.Errorf("ray growth %.2fx, want ~1.35x", ray[3])
	}
	// Trend reversal: vtk wins small, loses large.
	if vtk[0] >= ray[0] {
		t.Errorf("vtk should win at small size: %v vs %v", vtk[0], ray[0])
	}
	if vtk[2] <= ray[2] {
		t.Errorf("raycast should win at large size: %v vs %v", ray[2], vtk[2])
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		power := res.Series[alg+"/power"] // ratios 0.04 ... 1.0
		drop := 1 - power[0]/power[len(power)-1]
		if drop > 0.08 {
			t.Errorf("%s: power dropped %.0f%% under sampling; paper finds it flat", alg, drop*100)
		}
	}
	// Time still falls for vtk.
	times := res.Series["vtk-iso/time"]
	if times[0] >= times[len(times)-1] {
		t.Error("vtk-iso: sampling did not cut time")
	}
}

func TestFig15Shape(t *testing.T) {
	res, err := Fig15(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	rayPerf := res.Series["ray-iso/perf"]
	vtkTime := res.Series["vtk-iso/time"]
	rayTime := res.Series["ray-iso/time"]
	// Raycast near-linear to 64 nodes (index 6).
	if rayPerf[6] < 30 {
		t.Errorf("ray-iso speedup at 64 nodes = %.0fx, want near-linear", rayPerf[6])
	}
	// VTK degrades past its best point.
	best, bestIdx := vtkTime[0], 0
	for i, v := range vtkTime {
		if v < best {
			best, bestIdx = v, i
		}
	}
	last := len(vtkTime) - 1
	if bestIdx == last {
		t.Error("vtk-iso never degrades")
	}
	if vtkTime[last] <= best*1.05 {
		t.Errorf("vtk-iso at 216 (%.3fs) not clearly above its best (%.3fs)", vtkTime[last], best)
	}
	// Crossover: vtk wins at 32 (index 5), raycast wins at 64 (index 6).
	if vtkTime[5] >= rayTime[5] {
		t.Error("vtk should win at 32 nodes")
	}
	if vtkTime[6] <= rayTime[6] {
		t.Error("raycast should win at 64 nodes")
	}
}

func TestCodecsExperiment(t *testing.T) {
	res, err := Codecs(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	wire := res.Series["wireMB"]
	if len(wire) != 4 {
		t.Fatalf("codec sweep produced %d rows, want 4", len(wire))
	}
	// raw=0 flate=1 delta=2 delta+flate=3 (transport.Codecs order).
	if wire[1] >= wire[0] {
		t.Errorf("flate moved %.3f MB, raw %.3f MB: compression should shrink the wire", wire[1], wire[0])
	}
	// XOR deltas are length-preserving, so the delta stream's wire bytes
	// match raw exactly (one keyframe + length-preserving residuals).
	if diff := wire[2] - wire[0]; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("delta moved %.6f MB, raw %.6f MB: delta must be length-preserving", wire[2], wire[0])
	}
	if wire[3] >= wire[0] {
		t.Errorf("delta+flate moved %.3f MB, raw %.3f MB", wire[3], wire[0])
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("%s listed twice", e.ID)
		}
		seen[e.ID] = true
		r, err := e.Run(TestConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(r.Table.Rows()) == 0 {
			t.Errorf("%s produced no rows", e.ID)
		}
	}
	if len(seen) != 11 {
		t.Fatalf("ran %d experiments", len(seen))
	}
}
