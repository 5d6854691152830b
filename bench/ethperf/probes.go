package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/mempool"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/rt"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/vec"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

const (
	probeEpochs = 3
	probeCalls  = 9
	// probeIso is the isovalue VizProxy.RenderStep slides to for the first
	// image of a step.
	probeIso = 0.25
)

// probe calls fn(i) for i in [0, n) and returns the median call time in
// ms. Probes cycle i over the probe epochs so no call sees a warm cache
// the pipeline would not have.
func probe(n int, fn func(i int) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// presented returns what rank 0's simulation proxy puts on the wire for
// ds: its spatial piece, sampled.
func (w workload) presented(ds data.Dataset) (data.Dataset, error) {
	if w.Ranks > 1 {
		ds = ds.Partition(w.Ranks)[0]
	}
	if pc, ok := ds.(*data.PointCloud); ok && w.Ratio < 1 {
		return sampling.Points(pc, w.Ratio, w.Method, 1)
	}
	return ds, nil
}

// runProbes times direct calls into the lower layers on the workload's
// first epochs. Probes explain the largest ledger row; they are not part
// of its sum. Kernels the workload does not use read 0. The generator's
// probe is the run's own generation, one call per epoch.
func runProbes(w workload, epochs []data.Dataset, genTimes []float64, calls int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range probeMetrics {
		out[m.Name] = 0
	}
	set := func(name string, n int, fn func(i int) error) error {
		v, err := probe(n, fn)
		if err != nil {
			return fmt.Errorf("ethperf: probe %s: %w", name, err)
		}
		out[name] = v
		return nil
	}
	if w.Particles > 0 {
		out["cosmo.generate_ms"] = median(genTimes)
	} else {
		out["blast.generate_ms"] = median(genTimes)
	}
	nEpochs := min(probeEpochs, len(epochs))
	epochs = epochs[:nEpochs]

	if w.Ranks > 1 {
		if err := set("data.partition_ms", calls, func(i int) error {
			epochs[i%nEpochs].Partition(w.Ranks)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if _, ok := epochs[0].(*data.PointCloud); ok && w.Ratio < 1 {
		if err := set("sampling.points_ms", calls, func(i int) error {
			_, err := sampling.Points(epochs[i%nEpochs].(*data.PointCloud), w.Ratio, w.Method, 1)
			return err
		}); err != nil {
			return nil, err
		}
	}

	wire := make([]data.Dataset, nEpochs)
	for e := range wire {
		var err error
		if wire[e], err = w.presented(epochs[e]); err != nil {
			return nil, err
		}
	}

	// vtkio: the serialize and deserialize legs of SendDataset / Recv.
	var buf bytes.Buffer
	if err := set("vtkio.write_ms", calls, func(i int) error {
		buf.Reset()
		return vtkio.Write(&buf, wire[i%nEpochs])
	}); err != nil {
		return nil, err
	}
	if err := set("vtkio.read_ms", calls, func(i int) error {
		_, err := vtkio.Read(bytes.NewReader(buf.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}

	frame := fb.New(w.Size, w.Size)
	cams := make([]camera.Camera, nEpochs)
	for e := range cams {
		cams[e] = camera.ForBounds(wire[e].Bounds())
	}

	switch w.Algorithm {
	case "raycast":
		bvhs := make([]*rt.SphereBVH, nEpochs)
		radius := func(e int) float64 { return geom.DefaultSplatRadius(wire[e].(*data.PointCloud)) }
		if err := set("rt.bvh_build_ms", max(calls, nEpochs), func(i int) error {
			e := i % nEpochs
			bvhs[e] = rt.BuildSphereBVH(wire[e].(*data.PointCloud), radius(e), rt.MedianSplit)
			return nil
		}); err != nil {
			return nil, err
		}
		if err := set("rt.trace_ms_per_image", calls, func(i int) error {
			e := i % nEpochs
			frame.Clear(vec.V3{})
			return rt.RaycastSpheresWithBVH(frame, wire[e].(*data.PointCloud), bvhs[e], &cams[e],
				rt.SphereOptions{Radius: radius(e), ColorField: "speed"})
		}); err != nil {
			return nil, err
		}
	case "vtk-iso":
		meshes := make([]*geom.Mesh, nEpochs)
		if err := set("geom.isosurface_ms", max(calls, nEpochs), func(i int) error {
			var err error
			meshes[i%nEpochs], err = geom.Isosurface(wire[i%nEpochs].(*data.StructuredGrid), "temperature", probeIso)
			return err
		}); err != nil {
			return nil, err
		}
		var tris []float64
		for _, m := range meshes {
			tris = append(tris, float64(m.TriangleCount()))
		}
		out["geom.triangles"] = median(tris)
		if err := set("geom.drawmesh_ms", calls, func(i int) error {
			frame.Clear(vec.V3{})
			geom.DrawMesh(frame, meshes[i%nEpochs], &cams[i%nEpochs], geom.ShadeOptions{})
			return nil
		}); err != nil {
			return nil, err
		}
	case "points":
		// MapPoints hands out pooled sprites; each is drawn once and
		// returned, as the points renderer does.
		var mapT, drawT []float64
		for i := 0; i < calls; i++ {
			e := i % nEpochs
			t0 := time.Now()
			sprites, err := geom.MapPoints(wire[e].(*data.PointCloud), &cams[e], w.Size, w.Size,
				geom.PointsOptions{ColorField: "speed"})
			if err != nil {
				return nil, fmt.Errorf("ethperf: probe geom.mappoints_ms: %w", err)
			}
			t1 := time.Now()
			frame.Clear(vec.V3{})
			raster.DrawSprites(frame, sprites, 0)
			t2 := time.Now()
			geom.PutSprites(sprites)
			mapT = append(mapT, ms(t1.Sub(t0)))
			drawT = append(drawT, ms(t2.Sub(t1)))
		}
		out["geom.mappoints_ms"], out["raster.drawsprites_ms"] = median(mapT), median(drawT)
	}

	// The renderer as the proxy calls it, split by its own Stats.
	r, err := render.New(w.Algorithm)
	if err != nil {
		return nil, err
	}
	var setupT, drawT []float64
	for i := 0; i < calls; i++ {
		e := i % nEpochs
		frame.Clear(vec.V3{})
		st, err := r.Render(frame, wire[e], &cams[e], render.Options{IsoValue: probeIso})
		if err != nil {
			return nil, fmt.Errorf("ethperf: probe render: %w", err)
		}
		setupT = append(setupT, ms(st.Setup))
		drawT = append(drawT, ms(st.Render))
	}
	out["render.setup_ms_per_image"], out["render.draw_ms_per_image"] = median(setupT), median(drawT)

	// Frame handling: the per-step LastFrame copy and the hub's two
	// conversions. frame now holds a rendered image.
	if err := set("fb.snapshot_ms", calls, func(int) error {
		return fb.New(w.Size, w.Size).CopyFrom(frame)
	}); err != nil {
		return nil, err
	}
	var grid *data.StructuredGrid
	if err := set("hub.framegrid_ms", calls, func(int) error {
		grid = hub.FrameGrid(frame, grid)
		return nil
	}); err != nil {
		return nil, err
	}
	var back *fb.Frame
	if err := set("hub.gridframe_ms", calls, func(int) error {
		var err error
		back, err = hub.GridFrame(grid, back)
		return err
	}); err != nil {
		return nil, err
	}

	if w.Ranks > 1 {
		pieces := epochs[0].Partition(w.Ranks)
		frames := make([]*fb.Frame, len(pieces))
		for i, piece := range pieces {
			frames[i] = fb.New(w.Size, w.Size)
			cam := camera.ForBounds(piece.Bounds())
			if _, err := r.Render(frames[i], piece, &cam, render.Options{IsoValue: probeIso}); err != nil {
				return nil, fmt.Errorf("ethperf: probe render: %w", err)
			}
		}
		for name, alg := range map[string]compositing.Algorithm{
			"compositing.direct_send_ms": compositing.DirectSend,
			"compositing.binary_swap_ms": compositing.BinarySwap,
		} {
			if err := set(name, calls, func(int) error {
				out, _, err := compositing.Composite(frames, alg)
				if err == nil {
					mempool.ReleaseFrame(out)
				}
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
