package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/sampling"
)

// allocProbe is an analysis operation that reads the process's
// cumulative heap allocation at two steps, once every rank has reached
// the step: the last rank to arrive reads it while the others wait, so
// each reading sees every rank at the same point of the same step.
type allocProbe struct {
	ranks    int
	from, to int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
	total   [2]uint64 // runtime.MemStats.TotalAlloc at from and at to
}

func newAllocProbe(ranks, from, to int) *allocProbe {
	p := &allocProbe{ranks: ranks, from: from, to: to}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (*allocProbe) Name() string { return "allocprobe" }

func (p *allocProbe) Apply(ctx proxy.OpContext, _ data.Dataset) (proxy.OpResult, error) {
	if ctx.Step != p.from && ctx.Step != p.to {
		return proxy.OpResult{Op: "allocprobe"}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.arrived++; p.arrived < p.ranks {
		for gen := p.gen; gen == p.gen; {
			p.cond.Wait()
		}
		return proxy.OpResult{Op: "allocprobe"}, nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.total[min(ctx.Step-p.from, 1)] = ms.TotalAlloc
	p.arrived = 0
	p.gen++
	p.cond.Broadcast()
	return proxy.OpResult{Op: "allocprobe"}, nil
}

// TestRunMeasuredSteadyAllocs is the steadiness gate on owned memory: a
// 2-rank blast run and a 2-rank cosmo run, five times each with one seed,
// at GOMAXPROCS 1 and 2, allocate the same bytes over steps 10–20 to
// within 1 KiB per step. Memory a pool lends back depends on when the
// collector last ran and on how ranks interleave; memory a rank owns does
// not.
func TestRunMeasuredSteadyAllocs(t *testing.T) {
	const runs, from, to = 5, 10, 20
	specs := map[string]MeasuredSpec{
		"blast": {
			Workload:  XRAGEWorkload(40, 28, 24, to+2, 3),
			Algorithm: "vtk-iso",
		},
		"cosmo": {
			Workload:      HACCWorkload(8_000, to+2, 7),
			Algorithm:     "points",
			SamplingRatio: 0.5, SamplingMethod: sampling.Stratified,
		},
	}
	for _, procs := range []int{1, 2} {
		for name, spec := range specs {
			t.Run(fmt.Sprintf("%s/procs%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				spec.Width, spec.Height, spec.ImagesPerStep, spec.Ranks = 64, 64, 1, 2
				var perStep []float64
				for run := 0; run < runs; run++ {
					probe := newAllocProbe(spec.Ranks, from, to)
					spec.Operations = []proxy.Operation{probe}
					if _, err := RunMeasured(spec); err != nil {
						t.Fatal(err)
					}
					perStep = append(perStep, float64(probe.total[1]-probe.total[0])/(to-from))
				}
				lo, hi := perStep[0], perStep[0]
				for _, b := range perStep {
					lo, hi = min(lo, b), max(hi, b)
				}
				if hi-lo > 1024 {
					t.Errorf("steps %d–%d allocate %.0f to %.0f bytes per step over %d runs (%v), want within 1 KiB",
						from, to, lo, hi, runs, perStep)
				}
			})
		}
	}
}
