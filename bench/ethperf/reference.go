package main

import (
	"time"
)

// The reference kernel is how the benchmark tells a slow program from a
// slow machine. On the shared two-vCPU box the benchmark is sized for,
// memory-bound code runs up to 30 % slower for seconds or minutes at a
// time, while arithmetic-bound code does not (bench/README.md, "Noise"):
// the same binary's step period then spreads 10–25 % between runs. The
// slow-down changes faster than a run lasts, so no estimator inside one
// run removes it, but a small memory-bound kernel timed at every step
// boundary slows down by the same factor as the pipeline does. Every
// step's timings are therefore scaled by refKernelMs ÷ the kernel's time
// next to that step: they read what the step would have taken with the
// machine at its quiet speed. The kernel is part of the benchmark, so a
// change to the program cannot move it.
const (
	refWords   = 1 << 20 // 8 MiB of float64: beyond the 2 MiB L2
	refGathers = 1 << 18
	// refKernelMs is the kernel's median time on the sizing machine in a
	// quiet hour. It only fixes the scale: on another machine every
	// adjusted timing is off by one constant factor.
	refKernelMs = 3.0
	// refOutlier caps a kernel time at this multiple of the pass's median:
	// machine noise stays below 1.5, a kernel that lost the processor in
	// mid-run does not.
	refOutlier = 2.0
)

type reference struct {
	buf  []float64
	idx  []int32
	sink float64
}

func newReference() *reference {
	r := &reference{buf: make([]float64, refWords), idx: make([]int32, refGathers)}
	x := uint32(12345)
	for i := range r.idx {
		x = x*1664525 + 1013904223
		r.idx[i] = int32(x >> 12 & (refWords - 1))
	}
	return r
}

// run times one pass of the kernel, in ms: a random gather and a
// dependent read-modify-write sweep over the buffer.
func (r *reference) run() float64 {
	t0 := time.Now()
	s := 0.0
	for _, j := range r.idx {
		s += r.buf[j]
	}
	for i := range r.buf {
		s += r.buf[i]
		r.buf[i] = s * 1e-12
	}
	r.sink = s
	return ms(time.Since(t0))
}

// boundaries is what rank 0 recorded around its step boundaries: entry i
// belongs to the boundary before step i, the last one to the end of the
// run.
type boundaries struct {
	ref      []float64       // reference kernel time, ms
	cpuAsked []time.Duration // process CPU time when Step(i) was called
	cpuCalls []time.Duration // and when it returned, the kernel's share spent
}

func newBoundaries(steps int) *boundaries {
	return &boundaries{
		ref:      make([]float64, steps+1),
		cpuAsked: make([]time.Duration, steps+1),
		cpuCalls: make([]time.Duration, steps+1),
	}
}

// speeds returns, per step, the factor that scales a timing of that step
// to the quiet machine: refKernelMs over the mean of the kernel times at
// the step's two boundaries. A boundary the run never reached leaves its
// steps unscaled.
func (b *boundaries) speeds() []float64 {
	limit := refOutlier * median(nonZero(b.ref))
	at := func(i int) float64 { return min(b.ref[i], limit) }
	out := make([]float64, len(b.ref)-1)
	for i := range out {
		out[i] = 1
		if at(i) > 0 && at(i+1) > 0 {
			out[i] = refKernelMs / ((at(i) + at(i+1)) / 2)
		}
	}
	return out
}

func nonZero(vals []float64) []float64 {
	var out []float64
	for _, v := range vals {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}
