// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (§VI). Each returns a metrics.Table
// whose rows mirror what the paper reports, plus named numeric series so
// tests and benches can assert the reproduced *shape* (orderings,
// crossovers, scaling slopes). Performance/power/energy at paper scale
// come from the calibrated cluster model; image-quality numbers (RMSE)
// come from real renders of the real kernels. Every table title says
// which of the two its numbers are.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/ascr-ecx/eth/internal/cluster"
	"github.com/ascr-ecx/eth/internal/core"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/metrics"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/transport"
)

// Config scales the experiments. Defaults (via DefaultConfig) match the
// paper's setup; tests shrink the measured parts.
type Config struct {
	// Costs supplies the cluster cost models: nil selects DefaultCosts,
	// fitted to the paper's published runtimes; anything else is taken to
	// be measured on this machine (ethbench -calibrated), and the modeled
	// tables' titles say so.
	Costs cluster.CostTable
	// PixelsPerImage is the render resolution (paper-scale runs).
	PixelsPerImage int
	// HACCImagesPerStep is the HACC render load (paper: 500).
	HACCImagesPerStep int
	// XRAGEImages is the xRAGE total image count (paper: 1000, and 100
	// per step for strong scaling).
	XRAGEImages int
	// MeasuredParticles sizes the real renders used for RMSE (Table II);
	// it does not affect the modeled times.
	MeasuredParticles int
	// MeasuredSize is the measured-render image edge in pixels.
	MeasuredSize int
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		PixelsPerImage:    1 << 20, // 1024x1024
		HACCImagesPerStep: 500,
		XRAGEImages:       1000,
		MeasuredParticles: 200_000,
		MeasuredSize:      256,
	}
}

// TestConfig returns a fast configuration for unit tests.
func TestConfig() Config {
	return Config{
		PixelsPerImage:    1 << 20,
		HACCImagesPerStep: 500,
		XRAGEImages:       1000,
		MeasuredParticles: 20_000,
		MeasuredSize:      96,
	}
}

// Result bundles an experiment's presentation table with raw series for
// programmatic assertions.
type Result struct {
	Table  *metrics.Table
	Series map[string][]float64
}

// haccElements are the paper's four problem sizes (particles).
var haccElements = []float64{0.25e9, 0.5e9, 0.75e9, 1e9}

// xrageDims are the paper's three grid sizes.
var xrageDims = [][3]float64{
	{610, 375, 320},
	{1280, 750, 640},
	{1840, 1120, 960},
}

func xrageCells(i int) float64 {
	d := xrageDims[i]
	return d[0] * d[1] * d[2]
}

// haccAlgorithms in the paper's Table I order.
var haccAlgorithms = []string{"raycast", "gsplat", "points"}

func (c Config) costs() cluster.CostTable {
	if c.Costs != nil {
		return c.Costs
	}
	return cluster.DefaultCosts()
}

// modeled labels numbers that come from the cluster model, so no table
// passes modeled figures off as measured ones.
func (c Config) modeled() string {
	if c.Costs != nil {
		return "modeled, coefficients measured on this machine"
	}
	return "modeled"
}

// model runs one paper-scale configuration through the cluster model.
func (c Config) model(alg string, nodes int, elements float64, images int, ratio float64) (cluster.Result, error) {
	return core.RunModeled(core.ModeledSpec{
		Nodes:          nodes,
		Algorithm:      alg,
		Costs:          c.costs(),
		Elements:       elements,
		SamplingRatio:  ratio,
		PixelsPerImage: c.PixelsPerImage,
		ImagesPerStep:  images,
		TimeSteps:      1,
	})
}

// Table1 reproduces "Table I: Visualization Algorithm Results for HACC":
// execution time and average power for raycasting, Gaussian splat, and
// VTK points on the full dataset at 400 nodes.
func Table1(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Table I: Visualization Algorithm Results for HACC (1e9 particles, 400 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Time (s)", "Power (kW)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	for _, alg := range haccAlgorithms {
		r, err := cfg.model(alg, 400, 1e9, cfg.HACCImagesPerStep, 1)
		if err != nil {
			return res, err
		}
		tab.AddRow(paperName(alg), r.Seconds, r.AvgWatts/1000)
		res.Series["time"] = append(res.Series["time"], r.Seconds)
		res.Series["powerKW"] = append(res.Series["powerKW"], r.AvgWatts/1000)
	}
	return res, nil
}

func paperName(alg string) string {
	switch alg {
	case "raycast":
		return "Raycasting"
	case "gsplat":
		return "Gaussian Splat"
	case "points":
		return "VTK Points"
	case "vtk-iso":
		return "VTK (isosurface)"
	case "ray-iso":
		return "Raycasting (isosurface)"
	default:
		return alg
	}
}

// Table2 reproduces "Table II: Trade-off between accuracy and energy for
// HACC": for each algorithm and sampling ratio, the RMSE of the sampled
// render against the full render (measured, real kernels) and the energy
// saved (modeled).
func Table2(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Table II: Trade-off between accuracy and energy for HACC [RMSE measured, energy "+cfg.modeled()+"]",
		"Algorithm", "Sampling Ratio", "RMSE (measured)", "Energy Saved (%, modeled)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	ratios := []float64{0.75, 0.50, 0.25}
	for _, alg := range haccAlgorithms {
		full, err := cfg.model(alg, 400, 1e9, cfg.HACCImagesPerStep, 1)
		if err != nil {
			return res, err
		}
		ref, err := measuredFrame(cfg, alg, 1)
		if err != nil {
			return res, err
		}
		for _, ratio := range ratios {
			sampled, err := cfg.model(alg, 400, 1e9, cfg.HACCImagesPerStep, ratio)
			if err != nil {
				return res, err
			}
			frame, err := measuredFrame(cfg, alg, ratio)
			if err != nil {
				return res, err
			}
			rmse, err := fb.RMSE(ref, frame)
			if err != nil {
				return res, err
			}
			saved := metrics.EnergySavedPct(full.EnergyJ, sampled.EnergyJ)
			tab.AddRow(paperName(alg), ratio, rmse, saved)
			res.Series[alg+"/rmse"] = append(res.Series[alg+"/rmse"], rmse)
			res.Series[alg+"/saved"] = append(res.Series[alg+"/saved"], saved)
		}
	}
	return res, nil
}

// measuredFrame renders the laptop-scale HACC dataset with the given
// algorithm and sampling ratio and returns the frame.
func measuredFrame(cfg Config, alg string, ratio float64) (*fb.Frame, error) {
	r, err := core.RunMeasured(core.MeasuredSpec{
		Workload:       core.HACCWorkload(cfg.MeasuredParticles, 1, 11),
		Algorithm:      alg,
		Width:          cfg.MeasuredSize,
		Height:         cfg.MeasuredSize,
		ImagesPerStep:  1,
		SamplingRatio:  ratio,
		SamplingMethod: sampling.Random,
	})
	if err != nil {
		return nil, err
	}
	if len(r.Frames) == 0 || r.Frames[0] == nil {
		return nil, fmt.Errorf("experiments: no frame rendered for %s", alg)
	}
	return r.Frames[0], nil
}

// Fig8 reproduces Figure 8: normalized execution time versus data size
// at 400 nodes, normalized to the smallest dataset per algorithm.
func Fig8(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 8: Normalized execution time vs data size (HACC, 400 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "0.25e9", "0.5e9", "0.75e9", "1e9")
	res := Result{Table: tab, Series: map[string][]float64{}}
	for _, alg := range haccAlgorithms {
		var times []float64
		for _, elems := range haccElements {
			r, err := cfg.model(alg, 400, elems, cfg.HACCImagesPerStep, 1)
			if err != nil {
				return res, err
			}
			times = append(times, r.Seconds)
		}
		norm := make([]float64, len(times))
		for i, t := range times {
			norm[i] = t / times[0]
		}
		tab.AddRow(paperName(alg), norm[0], norm[1], norm[2], norm[3])
		res.Series[alg] = norm
	}
	return res, nil
}

// Fig9 reproduces Figure 9: performance, dynamic power, and energy for
// four spatial-sampling ratios (HACC, 400 nodes).
func Fig9(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 9: Performance, dynamic power, energy vs sampling ratio (HACC, 400 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Ratio", "Time (s)", "Dynamic Power (kW)", "Energy (MJ)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	ratios := []float64{0.25, 0.5, 0.75, 1.0}
	for _, alg := range haccAlgorithms {
		for _, ratio := range ratios {
			r, err := cfg.model(alg, 400, 1e9, cfg.HACCImagesPerStep, ratio)
			if err != nil {
				return res, err
			}
			tab.AddRow(paperName(alg), ratio, r.Seconds, r.DynWatts/1000, r.EnergyJ/1e6)
			res.Series[alg+"/time"] = append(res.Series[alg+"/time"], r.Seconds)
			res.Series[alg+"/dyn"] = append(res.Series[alg+"/dyn"], r.DynWatts)
			res.Series[alg+"/energy"] = append(res.Series[alg+"/energy"], r.EnergyJ)
		}
	}
	return res, nil
}

// Fig10 reproduces Figure 10: strong scaling of the HACC algorithms at
// 200 versus 400 nodes (time, power, energy).
func Fig10(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 10: Strong scaling (HACC full dataset, 200 vs 400 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Nodes", "Time (s)", "Power (kW)", "Energy (MJ)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	for _, alg := range haccAlgorithms {
		for _, nodes := range []int{200, 400} {
			r, err := cfg.model(alg, nodes, 1e9, cfg.HACCImagesPerStep, 1)
			if err != nil {
				return res, err
			}
			tab.AddRow(paperName(alg), nodes, r.Seconds, r.AvgWatts/1000, r.EnergyJ/1e6)
			res.Series[alg+"/time"] = append(res.Series[alg+"/time"], r.Seconds)
			res.Series[alg+"/power"] = append(res.Series[alg+"/power"], r.AvgWatts)
			res.Series[alg+"/energy"] = append(res.Series[alg+"/energy"], r.EnergyJ)
		}
	}
	return res, nil
}

// Fig11 reproduces Figure 11: the three coupling strategies' performance
// and energy for the HACC pipeline (Finding 6: intercore wins).
func Fig11(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 11: Coupling strategies (HACC, 400 nodes, 4 steps) ["+cfg.modeled()+"]",
		"Coupling", "Time (s)", "Energy (MJ)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	sim := cluster.SimSpec{
		SecondsPerStep: 120,
		RefNodes:       400,
		BytesPerStep:   1e9 * 32,
		Utilization:    0.5,
	}
	costs := cfg.costs()
	alg, err := costs.Get("gsplat")
	if err != nil {
		return res, err
	}
	job := cluster.Job{
		Algorithm:      alg,
		Elements:       1e9,
		PixelsPerImage: cfg.PixelsPerImage,
		ImagesPerStep:  cfg.HACCImagesPerStep,
		TimeSteps:      4,
	}
	for _, cpl := range cluster.Couplings() {
		r, err := cluster.SimulateCoupled(cluster.Hikari(400), job, sim, cpl)
		if err != nil {
			return res, err
		}
		tab.AddRow(cpl.String(), r.Seconds, r.EnergyJ/1e6)
		res.Series["time"] = append(res.Series["time"], r.Seconds)
		res.Series["energy"] = append(res.Series["energy"], r.EnergyJ)
	}
	return res, nil
}

// Fig12 reproduces Figure 12: performance, power, and energy of the
// geometry (vtk) and raycasting isosurface pipelines on the large xRAGE
// grid at 216 nodes.
func Fig12(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 12: xRAGE isosurface algorithms (large grid, 216 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Time (s)", "Power (kW)", "Energy (MJ)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		r, err := cfg.model(alg, 216, xrageCells(2), cfg.XRAGEImages, 1)
		if err != nil {
			return res, err
		}
		tab.AddRow(paperName(alg), r.Seconds, r.AvgWatts/1000, r.EnergyJ/1e6)
		res.Series["time"] = append(res.Series["time"], r.Seconds)
		res.Series["power"] = append(res.Series["power"], r.AvgWatts)
		res.Series["energy"] = append(res.Series["energy"], r.EnergyJ)
	}
	return res, nil
}

// Fig13 reproduces Figure 13: execution time versus problem size for the
// xRAGE pipelines at 216 nodes (27x data growth).
func Fig13(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 13: xRAGE execution time vs problem size (216 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Small (s)", "Medium (s)", "Large (s)", "Growth (x)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		var times []float64
		for i := range xrageDims {
			r, err := cfg.model(alg, 216, xrageCells(i), 100, 1)
			if err != nil {
				return res, err
			}
			times = append(times, r.Seconds)
		}
		growth := times[2] / times[0]
		tab.AddRow(paperName(alg), times[0], times[1], times[2], growth)
		res.Series[alg] = append(times, growth)
	}
	return res, nil
}

// Fig14 reproduces Figure 14: sampling's effect on xRAGE — execution
// time falls but power stays flat even at ratio 0.04 (unlike HACC).
func Fig14(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 14: xRAGE spatial sampling (large grid, 216 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Ratio", "Time (s)", "Power (kW)", "Energy (MJ)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	ratios := []float64{0.04, 0.25, 0.5, 1.0}
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		for _, ratio := range ratios {
			r, err := cfg.model(alg, 216, xrageCells(2), cfg.XRAGEImages, ratio)
			if err != nil {
				return res, err
			}
			tab.AddRow(paperName(alg), ratio, r.Seconds, r.AvgWatts/1000, r.EnergyJ/1e6)
			res.Series[alg+"/time"] = append(res.Series[alg+"/time"], r.Seconds)
			res.Series[alg+"/power"] = append(res.Series[alg+"/power"], r.AvgWatts)
		}
	}
	return res, nil
}

// Fig15Nodes is the strong-scaling sweep of Figure 15.
var Fig15Nodes = []int{1, 2, 4, 8, 16, 32, 64, 128, 216}

// Fig15 reproduces Figure 15: normalized performance versus node count
// for the xRAGE pipelines on the largest grid; raycast scales near
// linearly, vtk degrades past a point, crossover at 64 nodes.
func Fig15(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Figure 15: xRAGE strong scaling (largest grid, 1-216 nodes) ["+cfg.modeled()+"]",
		"Algorithm", "Nodes", "Time (s)", "Normalized Perf (x)")
	res := Result{Table: tab, Series: map[string][]float64{}}
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		var t1 float64
		for _, nodes := range Fig15Nodes {
			r, err := cfg.model(alg, nodes, xrageCells(2), 100, 1)
			if err != nil {
				return res, err
			}
			if nodes == 1 {
				t1 = r.Seconds
			}
			perf := metrics.NormalizedPerformance(t1, r.Seconds)
			tab.AddRow(paperName(alg), nodes, r.Seconds, perf)
			res.Series[alg+"/time"] = append(res.Series[alg+"/time"], r.Seconds)
			res.Series[alg+"/perf"] = append(res.Series[alg+"/perf"], perf)
		}
	}
	return res, nil
}

// Codecs measures the wire-codec axis of the design space on the real
// socket transport: a multi-step HACC stream is coupled through sockets
// once per codec (raw, flate, delta, delta+flate), reporting wall time
// and bytes moved across the in-situ interface. Successive steps of the
// same simulation are what the temporal codecs key against; every run
// renders the same frames, so the rows differ only in transport cost.
func Codecs(cfg Config) (Result, error) {
	tab := metrics.NewTable(
		"Codec sweep: wire bytes and wall time per transport codec (HACC, socket coupling) [measured]",
		"Codec", "Wall (s)", "Wire MB", "vs raw")
	res := Result{Table: tab, Series: map[string][]float64{}}
	dir, err := os.MkdirTemp("", "eth-codec-sweep-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	var rawMB float64
	for i, codec := range transport.Codecs() {
		r, err := core.RunMeasured(core.MeasuredSpec{
			Workload:      core.HACCWorkload(cfg.MeasuredParticles, 4, 11),
			Algorithm:     "points",
			Width:         cfg.MeasuredSize,
			Height:        cfg.MeasuredSize,
			ImagesPerStep: 1,
			Mode:          coupling.Socket,
			LayoutPath:    filepath.Join(dir, codec+".layout"),
			Codec:         codec,
		})
		if err != nil {
			return res, fmt.Errorf("experiments: codec %s: %w", codec, err)
		}
		wireMB := float64(r.BytesMoved) / 1e6
		if i == 0 {
			rawMB = wireMB
		}
		ratio := 1.0
		if rawMB > 0 {
			ratio = wireMB / rawMB
		}
		tab.AddRow(codec, r.Wall.Seconds(), wireMB, ratio)
		res.Series["wall"] = append(res.Series["wall"], r.Wall.Seconds())
		res.Series["wireMB"] = append(res.Series["wireMB"], wireMB)
	}
	return res, nil
}

// All runs every experiment and returns them keyed by id, in paper order
// (plus the harness-level codec sweep).
func All(cfg Config) ([]string, map[string]Result, error) {
	order := []string{"table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "codecs"}
	runs := map[string]func(Config) (Result, error){
		"table1": Table1, "table2": Table2,
		"fig8": Fig8, "fig9": Fig9, "fig10": Fig10, "fig11": Fig11,
		"fig12": Fig12, "fig13": Fig13, "fig14": Fig14, "fig15": Fig15,
		"codecs": Codecs,
	}
	out := map[string]Result{}
	for _, id := range order {
		r, err := runs[id](cfg)
		if err != nil {
			return order, out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out[id] = r
	}
	return order, out, nil
}
