package main

import (
	"fmt"
	"math"
	"time"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/transport"
)

// nominalSeconds is the -seconds value the step counts below are sized
// for (BENCHMARK.json's run_seconds). Another -seconds scales the counts
// in proportion; a window is always a fixed step count, never a duration.
const nominalSeconds = 24

const (
	warmSteps      = 10
	quickWarmSteps = 2
	quickMeasured  = 4
	quickEpochs    = 2
	tracedFraction = 0.3 // traced pass measures this share of the untraced window
)

// workload is one pipeline configuration. Every field is a property of
// the inputs or the pipeline; nothing below the benchmark sees the name.
type workload struct {
	Name, Why string

	// Data set: cosmo particles or a blast grid, Epochs time steps of it.
	Particles  int
	NX, NY, NZ int
	Epochs     int

	// Simulation side.
	Ranks    int
	Ratio    float64
	Method   sampling.Method
	SimCodec string

	// Visualization side.
	Algorithm string
	Size      int
	Images    int

	// Hub side.
	HubCodec transport.CodecID
	Viewers  int

	// Periods is the length of a nominal run's measured window in
	// ping-pong periods: a window is whole periods, so it holds every
	// epoch equally often and every run ends on the same epoch.
	Periods int
}

// period is the length of one ping-pong pass over the epochs, in steps.
func (w workload) period() int {
	if w.Epochs <= 1 {
		return 1
	}
	return 2*w.Epochs - 2
}

var workloads = []workload{
	{
		Name:      "cosmo-raycast",
		Why:       "paper Table I HACC case: rt does nearly all the work (BVH build every step + one traversal); sampling, compositing and codecs idle",
		Particles: 60_000, Epochs: 4,
		Ranks: 1, Ratio: 1, SimCodec: "raw",
		Algorithm: "raycast", Size: 352, Images: 1,
		HubCodec: transport.CodecRaw, Viewers: 1,
		Periods: 18, // 108 steps
	},
	{
		Name:      "cosmo-orbit",
		Why:       "same rt layer, many images per step: BVH built once and traversed three times, so a slower build for faster traversal wins here and loses on cosmo-raycast",
		Particles: 30_000, Epochs: 6,
		Ranks: 1, Ratio: 1, SimCodec: "raw",
		Algorithm: "raycast", Size: 224, Images: 3,
		HubCodec: transport.CodecRaw, Viewers: 1,
		Periods: 10, // 100 steps
	},
	{
		Name: "blast-iso-ranks",
		Why:  "xRAGE/Fig 12 geometry path: geom marching + raster + data partition + per-step compositing across two ranks that take turns on the one CPU; rt and codecs idle",
		NX:   130, NY: 79, NZ: 68, Epochs: 12,
		Ranks: 2, Ratio: 1, SimCodec: "raw",
		Algorithm: "vtk-iso", Size: 256, Images: 1,
		HubCodec: transport.CodecRaw, Viewers: 1,
		Periods: 5, // 110 steps
	},
	{
		Name:      "cosmo-wire",
		Why:       "data-movement path: stratified sampling, vtkio, delta+flate on both sockets and hub fan-out to two viewers dominate; the renderer is the cheapest one",
		Particles: 100_000, Epochs: 4,
		Ranks: 1, Ratio: 0.5, Method: sampling.Stratified, SimCodec: "delta+flate",
		Algorithm: "points", Size: 256, Images: 1,
		HubCodec: transport.CodecDeltaFlate, Viewers: 2,
		Periods: 40, // 240 steps
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("ethperf: unknown workload %q", name)
}

// sizes is the step budget of one pass.
type sizes struct {
	Warm, Measured int
}

func (s sizes) total() int { return s.Warm + s.Measured }

// scaled is n × f rounded to the nearest whole number, at least 1.
func scaled(n int, f float64) int {
	return max(1, int(math.Round(float64(n)*f)))
}

// untracedSizes returns the step counts of the end-to-end pass.
func (w workload) untracedSizes(seconds int, quick bool) sizes {
	if quick {
		return sizes{quickWarmSteps, quickMeasured}
	}
	return sizes{warmSteps, scaled(w.Periods, float64(seconds)/nominalSeconds) * w.period()}
}

// tracedSizes returns the step counts of each of the two passes of a
// traced run (one untraced for the overhead comparison, one traced).
func (w workload) tracedSizes(seconds int, quick bool) sizes {
	s := w.untracedSizes(seconds, quick)
	if quick {
		return s
	}
	return sizes{warmSteps, scaled(s.Measured/w.period(), tracedFraction) * w.period()}
}

// generate builds every epoch of the workload's data set from seed and
// reports how long each took, in ms.
func (w workload) generate(seed int64) ([]data.Dataset, []float64, error) {
	out := make([]data.Dataset, w.Epochs)
	times := make([]float64, w.Epochs)
	for e := range out {
		t0 := time.Now()
		var err error
		if out[e], err = w.generateEpoch(seed, e); err != nil {
			return nil, nil, fmt.Errorf("ethperf: generating %s epoch %d: %w", w.Name, e, err)
		}
		times[e] = ms(time.Since(t0))
	}
	return out, times, nil
}

func (w workload) generateEpoch(seed int64, epoch int) (data.Dataset, error) {
	if w.Particles > 0 {
		p := cosmo.DefaultParams()
		p.Particles = w.Particles
		p.Seed = seed
		p.TimeStep = epoch
		return cosmo.Generate(p)
	}
	return blast.Generate(blast.Params{
		NX: w.NX, NY: w.NY, NZ: w.NZ, BoxSize: 10, Seed: seed, TimeStep: epoch,
	})
}

// stepSource hands the pre-generated epochs to one simulation proxy in
// ping-pong order and records when each step was asked for: on rank 0
// that is the moment the previous step was fully acknowledged.
type stepSource struct {
	epochs []data.Dataset
	// asked[i] is when Step(i) was called; calls[i] when it returned the
	// data, after the benchmark's own work at the step boundary (onStep).
	// Step i's period runs from calls[i] to asked[i+1].
	asked, calls []time.Time
	onStep       func(step int)

	// Traced pass: the boundary work is recorded as a child of the span
	// the driver has open around StepData, so it is nobody's self time.
	tr           *tracer
	rank, parent int
}

func newStepSource(epochs []data.Dataset, steps int) *stepSource {
	return &stepSource{epochs: epochs, asked: make([]time.Time, steps), calls: make([]time.Time, steps), parent: -1}
}

func (s *stepSource) Steps() int { return len(s.calls) }

func (s *stepSource) Step(i int) (data.Dataset, error) {
	if i < 0 || i >= len(s.calls) {
		return nil, fmt.Errorf("ethperf: step %d outside [0, %d)", i, len(s.calls))
	}
	s.asked[i] = time.Now()
	if s.onStep != nil {
		s.onStep(i)
	}
	s.calls[i] = time.Now()
	s.tr.add(span{name: "bench.boundary", start: s.asked[i], end: s.calls[i], parent: s.parent, rank: s.rank, step: i})
	return s.epochs[pingpong(i, len(s.epochs))], nil
}
