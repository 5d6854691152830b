package cluster

import (
	"math"
	"testing"
)

// paperHACCJob returns the Table I configuration: 1e9 particles, 500
// images per step, one step, 1024x1024 images.
func paperHACCJob(alg string, t *testing.T) Job {
	t.Helper()
	cost, err := DefaultCosts().Get(alg)
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Algorithm:      cost,
		Elements:       1e9,
		PixelsPerImage: 1024 * 1024,
		ImagesPerStep:  500,
		TimeSteps:      1,
	}
}

// paperXRAGEJob returns the xRAGE configuration on the large grid.
func paperXRAGEJob(alg string, images int, t *testing.T) Job {
	t.Helper()
	cost, err := DefaultCosts().Get(alg)
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Algorithm:      cost,
		Elements:       1840 * 1120 * 960,
		PixelsPerImage: 1024 * 1024,
		ImagesPerStep:  images,
		TimeSteps:      1,
	}
}

func mustSim(t *testing.T, cfg Config, job Job) Result {
	t.Helper()
	r, err := Simulate(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidation(t *testing.T) {
	cfg := Hikari(4)
	good := paperHACCJob("points", t)
	if _, err := Simulate(Config{}, good); err == nil {
		t.Error("bad config accepted")
	}
	bad := good
	bad.PixelsPerImage = 0
	if _, err := Simulate(cfg, bad); err == nil {
		t.Error("zero pixels accepted")
	}
	bad = good
	bad.SamplingRatio = 2
	if _, err := Simulate(cfg, bad); err == nil {
		t.Error("ratio > 1 accepted")
	}
	bad = good
	bad.Algorithm.Efficiency = 0
	if _, err := Simulate(cfg, bad); err == nil {
		t.Error("zero efficiency accepted")
	}
	if _, err := DefaultCosts().Get("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAllDefaultCostsValidate(t *testing.T) {
	for name, c := range DefaultCosts() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.Name != name {
			t.Errorf("cost %q has name %q", name, c.Name)
		}
	}
}

// Table I shape: gsplat < points < raycast; power nearly equal at ~55 kW.
func TestTable1Shape(t *testing.T) {
	cfg := Hikari(400)
	ray := mustSim(t, cfg, paperHACCJob("raycast", t))
	gs := mustSim(t, cfg, paperHACCJob("gsplat", t))
	pts := mustSim(t, cfg, paperHACCJob("points", t))

	if !(gs.Seconds < pts.Seconds && pts.Seconds < ray.Seconds) {
		t.Errorf("ordering wrong: gsplat %.0f, points %.0f, raycast %.0f",
			gs.Seconds, pts.Seconds, ray.Seconds)
	}
	// Paper: gsplat 36%% faster than points; points 42%% faster than
	// raycast. Check within generous bands.
	if r := gs.Seconds / pts.Seconds; r < 0.4 || r > 0.85 {
		t.Errorf("gsplat/points = %.2f, want ~0.64", r)
	}
	if r := pts.Seconds / ray.Seconds; r < 0.35 || r > 0.8 {
		t.Errorf("points/raycast = %.2f, want ~0.58", r)
	}
	// Power ~55 kW and flat across algorithms (within 5%).
	for _, r := range []Result{ray, gs, pts} {
		if r.AvgWatts < 48_000 || r.AvgWatts > 62_000 {
			t.Errorf("power = %.0f W, want ~55 kW", r.AvgWatts)
		}
	}
	spread := math.Abs(gs.AvgWatts-pts.AvgWatts) / pts.AvgWatts
	if spread > 0.05 {
		t.Errorf("power spread gsplat vs points = %.1f%%", spread*100)
	}
}

// Fig 8 shape: geometry algorithms scale ~linearly with data size;
// raycast sub-linearly.
func TestFig8DataScalingShape(t *testing.T) {
	cfg := Hikari(400)
	ratio := func(alg string) float64 {
		small := paperHACCJob(alg, t)
		small.Elements = 0.25e9
		large := paperHACCJob(alg, t)
		return mustSim(t, cfg, large).Seconds / mustSim(t, cfg, small).Seconds
	}
	ray := ratio("raycast")
	gs := ratio("gsplat")
	pts := ratio("points")
	if ray > 2.0 {
		t.Errorf("raycast 4x-data growth = %.2fx, want sub-linear (< 2)", ray)
	}
	if gs < 2.0 || pts < 2.0 {
		t.Errorf("geometry 4x-data growth gsplat %.2fx points %.2fx, want near-linear (> 2)", gs, pts)
	}
	if !(ray < gs && ray < pts) {
		t.Errorf("raycast should scale best with data: ray %.2f gs %.2f pts %.2f", ray, gs, pts)
	}
}

// Fig 9 shape: sampling reduces time and, at ratio 0.25, drops dynamic
// power by roughly 39% (total by ~11%).
func TestFig9SamplingShape(t *testing.T) {
	cfg := Hikari(400)
	for _, alg := range []string{"gsplat", "points"} {
		full := mustSim(t, cfg, paperHACCJob(alg, t))
		quarterJob := paperHACCJob(alg, t)
		quarterJob.SamplingRatio = 0.25
		quarter := mustSim(t, cfg, quarterJob)
		if quarter.Seconds >= full.Seconds {
			t.Errorf("%s: sampling did not reduce time", alg)
		}
		dynDrop := 1 - quarter.DynWatts/full.DynWatts
		if dynDrop < 0.2 || dynDrop > 0.6 {
			t.Errorf("%s: dynamic power drop at 0.25 = %.0f%%, want ~39%%", alg, dynDrop*100)
		}
		totDrop := 1 - quarter.AvgWatts/full.AvgWatts
		if totDrop < 0.05 || totDrop > 0.25 {
			t.Errorf("%s: total power drop = %.0f%%, want ~11%%", alg, totDrop*100)
		}
	}
}

// Fig 10 shape: poor strong scaling 200 -> 400 nodes; ~50% power saving
// at 200 nodes; energy similar or better at 200.
func TestFig10StrongScalingShape(t *testing.T) {
	for _, alg := range []string{"raycast", "gsplat", "points"} {
		job := paperHACCJob(alg, t)
		r200 := mustSim(t, Hikari(200), job)
		r400 := mustSim(t, Hikari(400), job)
		speedup := r200.Seconds / r400.Seconds
		if speedup > 1.9 {
			t.Errorf("%s: 200->400 speedup %.2fx — model should show poor strong scaling", alg, speedup)
		}
		powerRatio := r200.AvgWatts / r400.AvgWatts
		if powerRatio < 0.4 || powerRatio > 0.65 {
			t.Errorf("%s: 200-node power is %.0f%% of 400-node, want ~50%%", alg, powerRatio*100)
		}
		if r200.EnergyJ > r400.EnergyJ*1.15 {
			t.Errorf("%s: energy at 200 nodes (%.2e J) much worse than 400 (%.2e J)", alg, r200.EnergyJ, r400.EnergyJ)
		}
	}
}

// Fig 12 shape: vtk-iso slower than ray-iso on the large grid at 216
// nodes; vtk draws less power; vtk costs more energy.
func TestFig12XRAGEShape(t *testing.T) {
	cfg := Hikari(216)
	vtk := mustSim(t, cfg, paperXRAGEJob("vtk-iso", 1000, t))
	ray := mustSim(t, cfg, paperXRAGEJob("ray-iso", 1000, t))
	if vtk.Seconds <= ray.Seconds {
		t.Errorf("vtk %.1fs should be slower than raycast %.1fs", vtk.Seconds, ray.Seconds)
	}
	if vtk.AvgWatts >= ray.AvgWatts {
		t.Errorf("vtk power %.0f should be below raycast %.0f", vtk.AvgWatts, ray.AvgWatts)
	}
	if vtk.EnergyJ <= ray.EnergyJ {
		t.Errorf("vtk energy %.2e should exceed raycast %.2e", vtk.EnergyJ, ray.EnergyJ)
	}
}

// Fig 13 shape: 27x data growth costs vtk ~5.8x and raycast ~1.35x; vtk
// is faster at the smallest size (trend reverses as data grows).
func TestFig13XRAGEDataScalingShape(t *testing.T) {
	cfg := Hikari(216)
	smallElems := float64(610 * 375 * 320)
	grow := func(alg string) (smallS, largeS float64) {
		job := paperXRAGEJob(alg, 100, t)
		small := job
		small.Elements = smallElems
		return mustSim(t, cfg, small).Seconds, mustSim(t, cfg, job).Seconds
	}
	vtkS, vtkL := grow("vtk-iso")
	rayS, rayL := grow("ray-iso")
	vtkGrowth := vtkL / vtkS
	rayGrowth := rayL / rayS
	if vtkGrowth < 3 || vtkGrowth > 9 {
		t.Errorf("vtk growth = %.1fx, want ~5.8x", vtkGrowth)
	}
	if rayGrowth < 1.05 || rayGrowth > 1.8 {
		t.Errorf("raycast growth = %.2fx, want ~1.35x", rayGrowth)
	}
	if vtkS >= rayS {
		t.Errorf("vtk (%.3fs) should beat raycast (%.3fs) at the smallest size", vtkS, rayS)
	}
	if vtkL <= rayL {
		t.Errorf("raycast (%.3fs) should beat vtk (%.3fs) at the largest size", rayL, vtkL)
	}
}

// Fig 15 shape: ray-iso strong-scales well up to high node counts; vtk
// stops scaling and degrades past a point; crossover near 64 nodes.
func TestFig15StrongScalingShape(t *testing.T) {
	time := func(alg string, nodes int) float64 {
		job := paperXRAGEJob(alg, 100, t)
		return mustSim(t, Hikari(nodes), job).Seconds
	}
	// Raycast: speedup from 1 to 64 nodes close to linear (>= 30x).
	raySpeedup := time("ray-iso", 1) / time("ray-iso", 64)
	if raySpeedup < 30 {
		t.Errorf("ray-iso 64-node speedup = %.1fx, want near-linear", raySpeedup)
	}
	// VTK: find its best node count; must degrade beyond it.
	best := math.Inf(1)
	bestN := 0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 216} {
		if s := time("vtk-iso", n); s < best {
			best = s
			bestN = n
		}
	}
	if bestN >= 216 {
		t.Errorf("vtk-iso never degrades (best at %d nodes)", bestN)
	}
	if t216 := time("vtk-iso", 216); t216 <= best*1.05 {
		t.Errorf("vtk-iso at 216 nodes (%.4fs) not clearly worse than its best (%.4fs at %d)", t216, best, bestN)
	}
	// Crossover: vtk wins at 32 nodes, raycast wins at 64+.
	if time("vtk-iso", 32) >= time("ray-iso", 32) {
		t.Error("vtk should still win at 32 nodes")
	}
	if time("vtk-iso", 64) <= time("ray-iso", 64) {
		t.Error("raycast should win at 64 nodes")
	}
}

// Fig 14 shape: sampling does NOT reduce power for the xRAGE algorithms
// (per-core load stays above saturation; rays dominate for raycasting).
func TestFig14XRAGESamplingPowerFlat(t *testing.T) {
	cfg := Hikari(216)
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		full := mustSim(t, cfg, paperXRAGEJob(alg, 100, t))
		sampledJob := paperXRAGEJob(alg, 100, t)
		sampledJob.SamplingRatio = 0.04
		sampled := mustSim(t, cfg, sampledJob)
		drop := 1 - sampled.AvgWatts/full.AvgWatts
		if drop > 0.08 {
			t.Errorf("%s: power dropped %.0f%% with sampling; paper finds it flat", alg, drop*100)
		}
		// Energy still falls for vtk because time falls.
		if alg == "vtk-iso" && sampled.EnergyJ >= full.EnergyJ {
			t.Errorf("vtk-iso: sampling did not reduce energy")
		}
	}
}

func TestSimulateBreakdownConsistent(t *testing.T) {
	cfg := Hikari(100)
	r := mustSim(t, cfg, paperHACCJob("raycast", t))
	sum := r.SetupSeconds + r.ComputeSeconds + r.CommSeconds
	if math.Abs(sum-r.Seconds) > 1e-6*r.Seconds {
		t.Errorf("breakdown %.2f != total %.2f", sum, r.Seconds)
	}
	if r.EnergyJ <= 0 || r.AvgWatts <= 0 {
		t.Error("non-positive energy/power")
	}
	if math.Abs(r.EnergyJ-r.AvgWatts*r.Seconds) > 1e-6*r.EnergyJ {
		t.Error("energy != power x time")
	}
	if r.Meter == nil || len(r.Meter.Samples()) == 0 {
		t.Error("no power samples")
	}
}

func TestSamplingDefaultsToOne(t *testing.T) {
	cfg := Hikari(50)
	a := mustSim(t, cfg, paperHACCJob("points", t))
	job := paperHACCJob("points", t)
	job.SamplingRatio = 1
	b := mustSim(t, cfg, job)
	if a.Seconds != b.Seconds {
		t.Error("ratio 0 (default) != ratio 1")
	}
}
