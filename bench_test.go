// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out. Each paper benchmark times the real kernels at
// laptop scale (the wall-clock numbers testing.B reports) and attaches
// the corresponding paper-scale modeled quantities as custom metrics
// (modeled-s, modeled-kW, modeled-MJ), so `go test -bench=.` regenerates
// both views side by side. cmd/ethbench prints the same results as
// formatted tables.
package eth_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/cluster"
	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/core"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/domain"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/rt"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/vec"
)

const (
	benchParticles = 200_000
	benchImage     = 256
)

// benchCloud caches the shared particle dataset across benchmarks.
var benchCloud = func() *data.PointCloud {
	p := cosmo.DefaultParams()
	p.Particles = benchParticles
	p.Seed = 5
	cloud, err := cosmo.Generate(p)
	if err != nil {
		panic(err)
	}
	return cloud
}()

// benchGrid caches the shared volume dataset.
var benchGrid = func() *data.StructuredGrid {
	wl := core.XRAGEWorkload(128, 78, 67, 1, 5)
	ds, err := wl.Generate(0)
	if err != nil {
		panic(err)
	}
	return ds.(*data.StructuredGrid)
}()

// modelHACC runs the paper-scale model for a HACC configuration.
func modelHACC(b *testing.B, alg string, nodes int, elements, ratio float64) cluster.Result {
	b.Helper()
	r, err := core.RunModeled(core.ModeledSpec{
		Nodes: nodes, Algorithm: alg,
		Elements: elements, SamplingRatio: ratio,
		PixelsPerImage: 1 << 20, ImagesPerStep: 500, TimeSteps: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func modelXRAGE(b *testing.B, alg string, nodes int, cells float64, images int, ratio float64) cluster.Result {
	b.Helper()
	r, err := core.RunModeled(core.ModeledSpec{
		Nodes: nodes, Algorithm: alg,
		Elements: cells, SamplingRatio: ratio,
		PixelsPerImage: 1 << 20, ImagesPerStep: images, TimeSteps: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// renderBench times one real render per iteration.
func renderBench(b *testing.B, ds data.Dataset, alg string, opt render.Options) {
	b.Helper()
	cam := camera.ForBounds(ds.Bounds())
	r, err := render.New(alg)
	if err != nil {
		b.Fatal(err)
	}
	frame := fb.New(benchImage, benchImage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.Clear(vec.V3{})
		if _, err := r.Render(frame, ds, &cam, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_HACCAlgorithms regenerates Table I: each sub-benchmark
// times the real kernel and reports the modeled 400-node time and power.
func BenchmarkTable1_HACCAlgorithms(b *testing.B) {
	for _, alg := range []string{"raycast", "gsplat", "points"} {
		b.Run(alg, func(b *testing.B) {
			m := modelHACC(b, alg, 400, 1e9, 1)
			renderBench(b, benchCloud, alg, render.Options{ColorField: "speed"})
			b.ReportMetric(m.Seconds, "modeled-s")
			b.ReportMetric(m.AvgWatts/1000, "modeled-kW")
		})
	}
}

// BenchmarkTable2_AccuracyEnergy regenerates Table II: sampled renders
// with real RMSE and modeled energy saving per configuration.
func BenchmarkTable2_AccuracyEnergy(b *testing.B) {
	cam := camera.ForBounds(benchCloud.Bounds())
	speed, err := benchCloud.Field("speed")
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := speed.MinMax()
	opt := render.Options{ColorField: "speed", ScalarLo: lo, ScalarHi: hi}
	for _, alg := range []string{"raycast", "gsplat", "points"} {
		r, err := render.New(alg)
		if err != nil {
			b.Fatal(err)
		}
		ref := fb.New(benchImage, benchImage)
		if _, err := r.Render(ref, benchCloud, &cam, opt); err != nil {
			b.Fatal(err)
		}
		full := modelHACC(b, alg, 400, 1e9, 1)
		for _, ratio := range []float64{0.75, 0.5, 0.25} {
			b.Run(fmt.Sprintf("%s/ratio=%.2f", alg, ratio), func(b *testing.B) {
				sampledModel := modelHACC(b, alg, 400, 1e9, ratio)
				sampled, err := sampling.Points(benchCloud, ratio, sampling.Random, 3)
				if err != nil {
					b.Fatal(err)
				}
				rr, err := render.New(alg)
				if err != nil {
					b.Fatal(err)
				}
				frame := fb.New(benchImage, benchImage)
				var rmse float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					frame.Clear(vec.V3{})
					if _, err := rr.Render(frame, sampled, &cam, opt); err != nil {
						b.Fatal(err)
					}
					if rmse, err = fb.RMSE(ref, frame); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rmse, "rmse")
				b.ReportMetric(100*(1-sampledModel.EnergyJ/full.EnergyJ), "modeled-saved-%")
			})
		}
	}
}

// BenchmarkFig8_HACCDataScaling regenerates Figure 8: the real kernels at
// two data sizes (timing the scaling directly) with the modeled
// normalized growth attached.
func BenchmarkFig8_HACCDataScaling(b *testing.B) {
	sizes := map[string]int{"quarter": benchParticles / 4, "full": benchParticles}
	for _, alg := range []string{"raycast", "gsplat", "points"} {
		small := modelHACC(b, alg, 400, 0.25e9, 1)
		large := modelHACC(b, alg, 400, 1e9, 1)
		for name, n := range sizes {
			b.Run(fmt.Sprintf("%s/%s", alg, name), func(b *testing.B) {
				p := cosmo.DefaultParams()
				p.Particles = n
				p.Seed = 5
				cloud, err := cosmo.Generate(p)
				if err != nil {
					b.Fatal(err)
				}
				renderBench(b, cloud, alg, render.Options{ColorField: "speed"})
				b.ReportMetric(large.Seconds/small.Seconds, "modeled-growth-x")
			})
		}
	}
}

// BenchmarkFig9_HACCSampling regenerates Figure 9: sampled real renders
// with modeled dynamic power attached.
func BenchmarkFig9_HACCSampling(b *testing.B) {
	for _, ratio := range []float64{0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("gsplat/ratio=%.2f", ratio), func(b *testing.B) {
			m := modelHACC(b, "gsplat", 400, 1e9, ratio)
			sampled, err := sampling.Points(benchCloud, ratio, sampling.Random, 3)
			if err != nil {
				b.Fatal(err)
			}
			renderBench(b, sampled, "gsplat", render.Options{ColorField: "speed"})
			b.ReportMetric(m.Seconds, "modeled-s")
			b.ReportMetric(m.DynWatts/1000, "modeled-dyn-kW")
		})
	}
}

// BenchmarkFig10_HACCStrongScaling regenerates Figure 10: multi-rank
// in-process renders at two rank counts with the modeled 200/400-node
// quantities attached.
func BenchmarkFig10_HACCStrongScaling(b *testing.B) {
	for _, cfg := range []struct {
		ranks int
		nodes int
	}{{2, 200}, {4, 400}} {
		b.Run(fmt.Sprintf("raycast/nodes=%d", cfg.nodes), func(b *testing.B) {
			m := modelHACC(b, "raycast", cfg.nodes, 1e9, 1)
			dec, err := domain.Decompose(benchCloud, cfg.ranks)
			if err != nil {
				b.Fatal(err)
			}
			cam := camera.ForBounds(benchCloud.Bounds())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dec.Render(benchImage, benchImage, "raycast", &cam,
					render.Options{ColorField: "speed", Radius: 0.12}, compositing.BinarySwap); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Seconds, "modeled-s")
			b.ReportMetric(m.AvgWatts/1000, "modeled-kW")
			b.ReportMetric(m.EnergyJ/1e6, "modeled-MJ")
		})
	}
}

// BenchmarkFig11_CouplingStrategies regenerates Figure 11: the modeled
// three-way coupling comparison (the measured socket-vs-unified pair runs
// in examples/coupling).
func BenchmarkFig11_CouplingStrategies(b *testing.B) {
	sim := cluster.SimSpec{SecondsPerStep: 120, RefNodes: 400, BytesPerStep: 1e9 * 32, Utilization: 0.5}
	costs := cluster.DefaultCosts()
	alg, err := costs.Get("gsplat")
	if err != nil {
		b.Fatal(err)
	}
	job := cluster.Job{
		Algorithm: alg, Elements: 1e9,
		PixelsPerImage: 1 << 20, ImagesPerStep: 500, TimeSteps: 4,
	}
	for _, cpl := range cluster.Couplings() {
		b.Run(cpl.String(), func(b *testing.B) {
			var r cluster.CoupledResult
			for i := 0; i < b.N; i++ {
				r, err = cluster.SimulateCoupled(cluster.Hikari(400), job, sim, cpl)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Seconds, "modeled-s")
			b.ReportMetric(r.EnergyJ/1e6, "modeled-MJ")
		})
	}
}

// BenchmarkFig12_XRAGEAlgorithms regenerates Figure 12: the two real
// isosurface pipelines with modeled 216-node quantities attached.
func BenchmarkFig12_XRAGEAlgorithms(b *testing.B) {
	cells := 1840.0 * 1120 * 960
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		b.Run(alg, func(b *testing.B) {
			m := modelXRAGE(b, alg, 216, cells, 1000, 1)
			renderBench(b, benchGrid, alg, render.Options{IsoValue: 0.45})
			b.ReportMetric(m.Seconds, "modeled-s")
			b.ReportMetric(m.AvgWatts/1000, "modeled-kW")
			b.ReportMetric(m.EnergyJ/1e6, "modeled-MJ")
		})
	}
}

// BenchmarkFig13_XRAGEDataScaling regenerates Figure 13: real renders of
// the small and large grids; modeled growth attached.
func BenchmarkFig13_XRAGEDataScaling(b *testing.B) {
	small := core.XRAGEWorkload(61, 38, 32, 1, 5)
	smallGrid, err := small.Generate(0)
	if err != nil {
		b.Fatal(err)
	}
	grids := map[string]data.Dataset{"small": smallGrid, "large": benchGrid}
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		smallM := modelXRAGE(b, alg, 216, 610.0*375*320, 100, 1)
		largeM := modelXRAGE(b, alg, 216, 1840.0*1120*960, 100, 1)
		for name, g := range grids {
			b.Run(fmt.Sprintf("%s/%s", alg, name), func(b *testing.B) {
				renderBench(b, g, alg, render.Options{IsoValue: 0.45})
				b.ReportMetric(largeM.Seconds/smallM.Seconds, "modeled-growth-x")
			})
		}
	}
}

// BenchmarkFig14_XRAGESampling regenerates Figure 14: grid sampling with
// modeled power attached (flat under sampling, unlike HACC).
func BenchmarkFig14_XRAGESampling(b *testing.B) {
	cells := 1840.0 * 1120 * 960
	for _, ratio := range []float64{0.04, 0.25, 1.0} {
		b.Run(fmt.Sprintf("vtk-iso/ratio=%.2f", ratio), func(b *testing.B) {
			m := modelXRAGE(b, "vtk-iso", 216, cells, 1000, ratio)
			sampled, err := sampling.Grid(benchGrid, ratio)
			if err != nil {
				b.Fatal(err)
			}
			renderBench(b, sampled, "vtk-iso", render.Options{IsoValue: 0.45})
			b.ReportMetric(m.Seconds, "modeled-s")
			b.ReportMetric(m.AvgWatts/1000, "modeled-kW")
		})
	}
}

// BenchmarkFig15_XRAGEStrongScaling regenerates Figure 15: multi-rank
// in-process volume renders with modeled node-count series attached.
func BenchmarkFig15_XRAGEStrongScaling(b *testing.B) {
	cells := 1840.0 * 1120 * 960
	for _, alg := range []string{"vtk-iso", "ray-iso"} {
		t1 := modelXRAGE(b, alg, 1, cells, 100, 1)
		for _, nodes := range []int{1, 64, 216} {
			b.Run(fmt.Sprintf("%s/nodes=%d", alg, nodes), func(b *testing.B) {
				m := modelXRAGE(b, alg, nodes, cells, 100, 1)
				ranks := 1
				if nodes > 1 {
					ranks = 4
				}
				dec, err := domain.Decompose(benchGrid, ranks)
				if err != nil {
					b.Fatal(err)
				}
				cam := camera.ForBounds(benchGrid.Bounds())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := dec.Render(benchImage, benchImage, alg, &cam,
						render.Options{IsoValue: 0.45}, compositing.BinarySwap); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(m.Seconds, "modeled-s")
				b.ReportMetric(t1.Seconds/m.Seconds, "modeled-speedup-x")
			})
		}
	}
}

// ---- Ablation benches (DESIGN.md §4) ----

// BenchmarkAblationBVHBuild compares the two BVH construction strategies.
func BenchmarkAblationBVHBuild(b *testing.B) {
	for _, s := range []rt.BuildStrategy{rt.MedianSplit, rt.BinnedSAH} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt.BuildSphereBVH(benchCloud, 0.12, s)
			}
		})
	}
}

// BenchmarkAblationBVHTraversal compares traversal speed of trees built
// with each strategy (build cost amortized away).
func BenchmarkAblationBVHTraversal(b *testing.B) {
	cam := camera.ForBounds(benchCloud.Bounds())
	for _, s := range []rt.BuildStrategy{rt.MedianSplit, rt.BinnedSAH} {
		bvh := rt.BuildSphereBVH(benchCloud, 0.12, s)
		b.Run(s.String(), func(b *testing.B) {
			frame := fb.New(benchImage, benchImage)
			for i := 0; i < b.N; i++ {
				frame.Clear(vec.V3{})
				if err := rt.RaycastSpheresWithBVH(frame, benchCloud, bvh, &cam, rt.SphereOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompositing compares direct-send and binary-swap over
// a 16-rank composite.
func BenchmarkAblationCompositing(b *testing.B) {
	dec, err := domain.Decompose(benchCloud, 16)
	if err != nil {
		b.Fatal(err)
	}
	cam := camera.ForBounds(benchCloud.Bounds())
	frames := make([]*fb.Frame, dec.Ranks())
	for i, piece := range dec.Pieces {
		r, err := render.New("points")
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = fb.New(benchImage, benchImage)
		if _, err := r.Render(frames[i], piece, &cam, render.Options{ColorField: "speed"}); err != nil {
			b.Fatal(err)
		}
	}
	for _, alg := range []compositing.Algorithm{compositing.DirectSend, compositing.BinarySwap} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := compositing.Composite(frames, alg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSampling compares the three point-sampling methods on
// speed and on RMSE impact at ratio 0.25.
func BenchmarkAblationSampling(b *testing.B) {
	cam := camera.ForBounds(benchCloud.Bounds())
	speed, err := benchCloud.Field("speed")
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := speed.MinMax()
	opt := render.Options{ColorField: "speed", ScalarLo: lo, ScalarHi: hi}
	r, err := render.New("points")
	if err != nil {
		b.Fatal(err)
	}
	ref := fb.New(benchImage, benchImage)
	if _, err := r.Render(ref, benchCloud, &cam, opt); err != nil {
		b.Fatal(err)
	}
	for _, m := range []sampling.Method{sampling.Random, sampling.Stride, sampling.Stratified} {
		b.Run(m.String(), func(b *testing.B) {
			var sampled *data.PointCloud
			for i := 0; i < b.N; i++ {
				var err error
				sampled, err = sampling.Points(benchCloud, 0.25, m, 3)
				if err != nil {
					b.Fatal(err)
				}
			}
			frame := fb.New(benchImage, benchImage)
			if _, err := r.Render(frame, sampled, &cam, opt); err != nil {
				b.Fatal(err)
			}
			rmse, err := fb.RMSE(ref, frame)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// BenchmarkAblationRasterTiling sweeps the scanline-band height of the
// parallel rasterizer (load balance vs binning overhead).
func BenchmarkAblationRasterTiling(b *testing.B) {
	// A realistic triangle load: the extracted blast isosurface.
	tris := benchTriangles(b)
	for _, band := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("band=%d", band), func(b *testing.B) {
			frame := fb.New(benchImage, benchImage)
			for i := 0; i < b.N; i++ {
				frame.Clear(vec.V3{})
				raster.DrawTrianglesBanded(frame, tris, 0, band)
			}
		})
	}
}

// BenchmarkAblationCompression compares the in-situ interface with and
// without the flate codec over a real loopback socket pair — the
// time-vs-bytes trade-off of the introduction's compression lever.
func BenchmarkAblationCompression(b *testing.B) {
	step := benchCloud.Slice(0, 50_000)
	for _, codec := range []string{"raw", "flate"} {
		b.Run(codec, func(b *testing.B) {
			var bytesMoved int64
			for i := 0; i < b.N; i++ {
				sim, err := proxy.NewSimProxy(proxy.SimConfig{Codec: codec},
					&proxy.MemSource{Data: []data.Dataset{step}})
				if err != nil {
					b.Fatal(err)
				}
				viz, err := proxy.NewVizProxy(proxy.VizConfig{
					Width: 64, Height: 64, Algorithm: "points", ImagesPerStep: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := coupling.RunSocketPair(context.Background(), sim, viz,
					filepath.Join(b.TempDir(), "layout"), 0, coupling.Policy{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				bytesMoved = rep.BytesMoved
			}
			b.ReportMetric(float64(bytesMoved)/1e6, "wire-MB")
		})
	}
}
