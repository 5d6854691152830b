// Package core is the Exploration Test Harness itself — the paper's
// primary contribution. An experiment names a workload (synthetic HACC or
// xRAGE data, or exported dumps on disk), a rendering algorithm, a
// coupling mode, and sampling parameters; the harness runs the real
// pipelines at laptop scale through the proxy pair, producing wall-clock
// times, images, and data-movement counts. Paper-scale modeled runs
// belong to internal/cluster, which extrapolates the same cost structure
// to the paper's node counts.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/metrics"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/transport"
)

// Workload produces the datasets an experiment replays.
type Workload struct {
	// Name labels the workload ("hacc", "xrage", or user-defined).
	Name string
	// Steps is the number of time steps.
	Steps int
	// Generate produces the dataset for one step.
	Generate func(step int) (data.Dataset, error)
}

// Validate reports specification errors.
func (w Workload) Validate() error {
	if w.Steps <= 0 {
		return fmt.Errorf("core: workload %q has no steps", w.Name)
	}
	if w.Generate == nil {
		return fmt.Errorf("core: workload %q has no generator", w.Name)
	}
	return nil
}

// HACCWorkload returns a synthetic cosmology workload with the given
// particle count (the paper's runs use 0.25-1 billion; laptop-scale
// experiments use millions).
func HACCWorkload(particles, steps int, seed int64) Workload {
	return Workload{
		Name:  "hacc",
		Steps: steps,
		Generate: func(step int) (data.Dataset, error) {
			p := cosmo.DefaultParams()
			p.Particles = particles
			p.Seed = seed
			p.TimeStep = step
			return cosmo.Generate(p)
		},
	}
}

// XRAGEWorkload returns a synthetic asteroid-impact volume workload with
// the given grid dimensions.
func XRAGEWorkload(nx, ny, nz, steps int, seed int64) Workload {
	return Workload{
		Name:  "xrage",
		Steps: steps,
		Generate: func(step int) (data.Dataset, error) {
			p := blast.Params{NX: nx, NY: ny, NZ: nz, BoxSize: 10, Seed: seed, TimeStep: step}
			return blast.Generate(p)
		},
	}
}

// DiskWorkload replays exported dumps, one file per step — the paper's
// primary data path (§III-B).
func DiskWorkload(name string, paths ...string) (Workload, error) {
	src, err := proxy.NewDiskSource(paths...)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:     name,
		Steps:    src.Steps(),
		Generate: src.Step,
	}, nil
}

// MeasuredSpec describes a laptop-scale measured experiment.
type MeasuredSpec struct {
	// Workload supplies the data.
	Workload Workload
	// Algorithm names the rendering back-end.
	Algorithm string
	// Width, Height and ImagesPerStep shape the render load.
	Width, Height, ImagesPerStep int
	// Ranks is the proxy-pair count (spatial pieces).
	Ranks int
	// Mode selects unified or socket coupling.
	Mode coupling.Mode
	// LayoutPath is required for socket mode.
	LayoutPath string
	// SamplingRatio in (0, 1]; 0 means 1.
	SamplingRatio float64
	// SamplingMethod selects the point-sampling strategy.
	SamplingMethod sampling.Method
	// Codec names the socket-mode wire codec ("raw", "flate", "delta",
	// "delta+flate"; "" is raw) — the transport axis of the design space,
	// sweepable like sampling or the algorithm.
	Codec string
	// Operations are in-situ analysis steps run by every viz proxy.
	Operations []proxy.Operation
	// OutDir, when set, receives PNG artifacts.
	OutDir string
	// Journal, when set, receives the run's structured event stream (a
	// trace file via journal.Create, or any journal.Writer). When nil the
	// run still records into a private memory-only journal so the result
	// carries a per-phase breakdown either way.
	Journal *journal.Writer
	// Policy is the socket-mode degradation policy (retry/skip budgets,
	// deadlines, optional fault injection). Zero = fail on first error.
	Policy coupling.Policy
	// Ctx, when set, bounds the run, supervised or not: cancellation
	// drains the in-flight step and the run returns an error wrapping
	// supervise.ErrShutdown. Nil means context.Background().
	Ctx context.Context
	// Supervise, when set, runs every proxy pair under a watchdog with
	// this restart policy: a stalled, panicked, or crashed pair is torn
	// down and restarted under the budget, resuming from its step cursor.
	// Nil runs unsupervised (failures end the run).
	Supervise *supervise.Config
	// Resume holds the events of an earlier run's journal: each rank's
	// visualization proxy starts at journal.Cursor(Resume, rank), after
	// its last completed step, instead of re-rendering from step 0.
	Resume []journal.Event
}

// Validate reports errors.
func (s MeasuredSpec) Validate() error {
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if s.Algorithm == "" {
		return fmt.Errorf("core: no algorithm")
	}
	if s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("core: bad frame size %dx%d", s.Width, s.Height)
	}
	if s.Ranks < 0 {
		return fmt.Errorf("core: negative rank count")
	}
	if s.Mode == coupling.Socket && s.LayoutPath == "" {
		return fmt.Errorf("core: socket mode needs a layout path")
	}
	if _, err := transport.ParseCodec(s.Codec); err != nil {
		return err
	}
	return nil
}

// MeasuredResult reports a measured run.
type MeasuredResult struct {
	// Wall is end-to-end time, including dataset generation and the
	// final composite.
	Wall time.Duration
	// RenderTime sums the visualization proxies' render time.
	RenderTime time.Duration
	// BytesMoved is the total in-situ interface traffic.
	BytesMoved int64
	// Elements is the total element count processed in the last step.
	Elements int
	// Frames holds each rank's final frame (rank order).
	Frames []*fb.Frame
	// Composited is the final cross-rank composited frame: a frame of its
	// own for multi-rank runs, Frames[0] for single-rank runs.
	Composited *fb.Frame
	// CompositeStats reports the composite's modeled communication.
	CompositeStats compositing.Stats
	// Phases is the per-phase wall-clock breakdown the run journal summed
	// as events arrived (generate/sample/serialize/transport/render/
	// analysis/composite). With concurrent ranks the phase totals sum CPU
	// time across ranks, so they may exceed Wall; for a single pair they
	// account for nearly all of it.
	Phases map[string]time.Duration
	// Reports are the raw per-pair reports.
	Reports []coupling.Report
}

// PhaseTable renders the per-phase breakdown as a metrics table, phases
// in pipeline order, with each phase's share of wall time.
func (r MeasuredResult) PhaseTable() *metrics.Table {
	t := metrics.NewTable("Per-phase breakdown", "phase", "seconds", "% of wall")
	var total time.Duration
	for _, name := range journal.PhaseNames(r.Phases) {
		d := r.Phases[name]
		total += d
		t.AddRow(name, d.Seconds(), pctOf(d, r.Wall))
	}
	t.AddRow("total", total.Seconds(), pctOf(total, r.Wall))
	return t
}

func pctOf(d, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(wall)
}

// RunMeasured executes the spec with real pipelines. Every run records a
// structured journal (streamed to spec.Journal when set) and returns the
// per-phase wall-clock breakdown reconstructed from it.
func RunMeasured(spec MeasuredSpec) (MeasuredResult, error) {
	if err := spec.Validate(); err != nil {
		return MeasuredResult{}, err
	}
	ranks := spec.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	jw := spec.Journal
	if jw == nil {
		jw = journal.New()
	}

	t0 := time.Now()
	jw.Emit(journal.Event{
		Type: journal.TypeRunStart, Rank: -1, Step: -1,
		Detail: fmt.Sprintf("workload=%s algorithm=%s mode=%s ranks=%d steps=%d images=%d sampling=%g",
			spec.Workload.Name, spec.Algorithm, spec.Mode, ranks,
			spec.Workload.Steps, spec.ImagesPerStep, effectiveRatio(spec.SamplingRatio)),
	})

	// Pre-generate steps once and share across rank proxies (the disk
	// data is the same file for every rank in the paper's design). Each
	// generation is journaled under the generate phase with rank -1, the
	// harness's own identity.
	datasets := make([]data.Dataset, spec.Workload.Steps)
	for s := range datasets {
		g0 := time.Now()
		ds, err := spec.Workload.Generate(s)
		if err != nil {
			err = fmt.Errorf("core: generating step %d: %w", s, err)
			jw.Error(-1, s, err)
			return MeasuredResult{}, err
		}
		genDur := time.Since(g0)
		jw.Emit(journal.Event{
			Type: journal.TypeDataset, Phase: journal.PhaseGenerate,
			Rank: -1, Step: s, DurNS: int64(genDur),
			Elements: ds.Count(), Bytes: ds.Bytes(),
			Detail: "workload=" + spec.Workload.Name,
		})
		datasets[s] = ds
	}

	pairs := make([]coupling.PairSpec, ranks)
	for r := 0; r < ranks; r++ {
		sim, err := proxy.NewSimProxy(proxy.SimConfig{
			Rank: r, Ranks: ranks,
			SamplingRatio:  spec.SamplingRatio,
			SamplingMethod: spec.SamplingMethod,
			Seed:           int64(r) + 1,
			Codec:          spec.Codec,
			Journal:        jw,
		}, &proxy.MemSource{Data: datasets})
		if err != nil {
			return MeasuredResult{}, err
		}
		viz, err := proxy.NewVizProxy(proxy.VizConfig{
			Rank: r, Width: spec.Width, Height: spec.Height,
			Algorithm:     spec.Algorithm,
			ImagesPerStep: spec.ImagesPerStep,
			OutDir:        spec.OutDir,
			Operations:    spec.Operations,
			Journal:       jw,
			Start:         journal.Cursor(spec.Resume, r),
		})
		if err != nil {
			return MeasuredResult{}, err
		}
		pairs[r] = coupling.PairSpec{Sim: sim, Viz: viz}
	}

	ctx := spec.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	reports, err := coupling.RunPairsSupervised(ctx, pairs, spec.Mode, spec.LayoutPath, spec.Policy, spec.Supervise, jw)
	if err != nil {
		return MeasuredResult{}, err
	}
	res := MeasuredResult{Reports: reports}
	for _, rep := range reports {
		res.BytesMoved += rep.BytesMoved
		res.RenderTime += rep.Viz.TotalRenderTime()
		if n := len(rep.Viz.Results); n > 0 {
			res.Elements += rep.Viz.Results[n-1].Elements
			res.Frames = append(res.Frames, rep.Viz.LastFrame())
		}
	}

	// Merge the per-rank frames of the last step into the final image —
	// the sort-last composite every distributed in-situ run ends with. The
	// merge runs into a copy of rank 0's frame, so Frames keeps each
	// rank's own image.
	if len(res.Frames) > 1 {
		c0 := time.Now()
		root := fb.New(res.Frames[0].W, res.Frames[0].H)
		_ = root.CopyFrom(res.Frames[0]) // same size by construction
		frames := append([]*fb.Frame{root}, res.Frames[1:]...)
		comp, cstats, err := compositing.Composite(frames, compositing.DirectSend)
		if err != nil {
			jw.Error(-1, -1, err)
			return MeasuredResult{}, err
		}
		compDur := time.Since(c0)
		res.Composited = comp
		res.CompositeStats = cstats
		jw.Emit(journal.Event{
			Type: journal.TypeComposite, Phase: journal.PhaseComposite,
			Rank: -1, Step: -1, DurNS: int64(compDur),
			Bytes: cstats.BytesMoved,
			Detail: fmt.Sprintf("algorithm=%s frames=%d rounds=%d",
				compositing.DirectSend, len(res.Frames), cstats.Rounds),
		})
	} else if len(res.Frames) == 1 {
		res.Composited = res.Frames[0]
	}

	res.Wall = time.Since(t0)
	jw.Emit(journal.Event{
		Type: journal.TypeRunEnd, Rank: -1, Step: -1, DurNS: int64(res.Wall),
	})
	res.Phases = jw.Phases()
	return res, nil
}

// effectiveRatio reports the sampling ratio with 0 meaning disabled (1).
func effectiveRatio(r float64) float64 {
	if r == 0 {
		return 1
	}
	return r
}
