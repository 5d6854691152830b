package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/raceflag"
)

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		q    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 90, 100},
		{[]float64{1, 2}, 0, 1},
		{[]float64{1, 2}, 100, 2},
	} {
		if got := percentile(tc.vals, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.vals, tc.q, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

func TestPingpong(t *testing.T) {
	for _, tc := range []struct {
		epochs int
		want   []int
	}{
		{1, []int{0, 0, 0}},
		{2, []int{0, 1, 0, 1, 0}},
		{4, []int{0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 0}},
	} {
		for step, want := range tc.want {
			got := pingpong(step, tc.epochs)
			if got != want {
				t.Errorf("pingpong(%d, %d) = %d, want %d", step, tc.epochs, got, want)
			}
			if step > 0 && tc.epochs > 1 {
				if d := got - pingpong(step-1, tc.epochs); d != 1 && d != -1 {
					t.Errorf("epochs %d: steps %d and %d are not neighbouring epochs", tc.epochs, step-1, step)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := func(lo, hi, parent int) span { return span{start: at(lo), end: at(hi), parent: parent} }
	for _, tc := range []struct {
		name  string
		spans []span
		want  time.Duration
	}{
		{"no children", []span{sp(0, 100, -1)}, 100 * time.Millisecond},
		{"two disjoint children", []span{sp(0, 100, -1), sp(10, 30, 0), sp(50, 60, 0)}, 70 * time.Millisecond},
		{"overlapping children count once", []span{sp(0, 100, -1), sp(10, 50, 0), sp(30, 70, 0)}, 40 * time.Millisecond},
		{"child clipped to parent", []span{sp(10, 100, -1), sp(0, 20, 0), sp(90, 150, 0)}, 70 * time.Millisecond},
		{"grandchild is not a child", []span{sp(0, 100, -1), sp(10, 30, 0), sp(15, 25, 1)}, 80 * time.Millisecond},
		{"other parent ignored", []span{sp(0, 100, -1), sp(0, 100, -1), sp(10, 30, 1)}, 100 * time.Millisecond},
	} {
		if got := selfTime(tc.spans, 0); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(v float64) *series {
		s := &series{}
		for _, x := range []float64{v * 0.99, v, v * 1.01} {
			r := childRun{Res: result{Metrics: map[string]metricValue{}}}
			for _, m := range endToEnd {
				r.Res.Metrics[m.Name] = metricValue{Value: x, Unit: m.Unit}
			}
			s.runs = append(s.runs, r)
		}
		return s
	}
	for _, row := range compareSets("w", mk(100), mk(100.4)) {
		// 0.4 % apart: inside every bound.
		if !row.OK || math.Abs(row.Diff-0.004) > 1e-9 {
			t.Errorf("%s: diff %v ok %v, want 0.004 within bound %v", row.Metric, row.Diff, row.OK, row.Bound)
		}
	}
	for _, row := range compareSets("w", mk(100), mk(70)) {
		if row.OK {
			t.Errorf("%s: a 30 %% difference passed bound %v", row.Metric, row.Bound)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "cosmo-wire", "--seed", "7", "--seconds", "22", "--trace", "1"})
	if err != nil || o.Workload != "cosmo-wire" || o.Seed != 7 || o.Seconds != 22 || !o.Trace {
		t.Errorf("driver form: %+v, %v", o, err)
	}
	if o, err = parseFlags([]string{"--trace", "0", "-quick"}); err != nil || o.Trace || !o.Quick {
		t.Errorf("--trace 0: %+v, %v", o, err)
	}
	if o, err = parseFlags([]string{"-trace", "-rounds", "3"}); err != nil || !o.Trace || o.Rounds != 3 {
		t.Errorf("bare -trace: %+v, %v", o, err)
	}
	if _, err = parseFlags([]string{"stray"}); err == nil {
		t.Error("a stray argument was accepted")
	}
}

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step: same workloads, same metrics, same units, same bounds.
func TestBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the perLayer tables:\n json %+v\n code %+v", bj.PerLayer, perLayer())
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, nominalSeconds %d", bj.RunSeconds, nominalSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		check(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: json %q, code %q (or their why lines differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		check(m.Name)
	}
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", m.Name, m.Bound)
		}
	}
}

// TestSizes checks the step budgets: at least 100 measured steps in a
// nominal window, windows that are whole ping-pong periods, and the same
// final epoch whatever -seconds is (the golden final-frame check relies
// on it).
func TestSizes(t *testing.T) {
	for _, w := range workloads {
		nominal := w.untracedSizes(nominalSeconds, false)
		if nominal.Warm != warmSteps || nominal.Measured < 100 {
			t.Errorf("%s: %d+%d steps; p90 needs at least 100 measured", w.Name, nominal.Warm, nominal.Measured)
		}
		finalEpoch := pingpong(nominal.total()-1, w.Epochs)
		if _, ok := golden[w.Name].Frames[finalEpoch]; !ok {
			t.Errorf("%s: golden.json records no frame for the final epoch %d", w.Name, finalEpoch)
		}
		for _, seconds := range []int{1, 7, nominalSeconds, 60} {
			for _, sz := range []sizes{w.untracedSizes(seconds, false), w.tracedSizes(seconds, false)} {
				if sz.Measured < 1 || sz.Measured%w.period() != 0 {
					t.Errorf("%s -seconds %d: %d steps are not whole periods of %d", w.Name, seconds, sz.Measured, w.period())
				}
				if got := pingpong(sz.total()-1, w.Epochs); got != finalEpoch {
					t.Errorf("%s -seconds %d: run ends on epoch %d, a nominal run on %d", w.Name, seconds, got, finalEpoch)
				}
			}
		}
		if half := w.untracedSizes(nominalSeconds/2, false); half.Measured > nominal.Measured {
			t.Errorf("%s: half the seconds measures %d steps, all of them %d", w.Name, half.Measured, nominal.Measured)
		}
	}
}

// TestSpeeds checks the scaling to the quiet machine: a step whose two
// boundary kernels took twice refKernelMs counts half, an outlier is
// capped, and a boundary the run never reached leaves its steps alone.
func TestSpeeds(t *testing.T) {
	bd := newBoundaries(5)
	copy(bd.ref, []float64{refKernelMs, refKernelMs, 2 * refKernelMs, 2 * refKernelMs, 50 * refKernelMs, 0})
	limit := refOutlier * 2 * refKernelMs // the median is 2 × refKernelMs
	want := []float64{1, 1 / 1.5, 0.5, refKernelMs / ((2*refKernelMs + limit) / 2), 1}
	for i, got := range bd.speeds() {
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("step %d: speed %v, want %v", i, got, want[i])
		}
	}
}

// TestStartGate checks that the gate runs its function once, after every
// rank has arrived and before any is released.
func TestStartGate(t *testing.T) {
	const ranks = 3
	var arrived, released atomic.Int32
	ran := 0
	g := newStartGate(ranks, func() {
		ran++
		if a, r := arrived.Load(), released.Load(); a != ranks || r != 0 {
			t.Errorf("snapshot taken with %d of %d ranks parked and %d released", a, ranks, r)
		}
	})
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			g.arrive()
			released.Add(1)
		}()
	}
	wg.Wait()
	if ran != 1 {
		t.Errorf("gate function ran %d times", ran)
	}
}

// TestQuickSmoke runs every workload through both passes at smoke size
// and checks that each metric BENCHMARK.json names is emitted once with
// its unit, that the ledger covers the step, and that nothing failed —
// on seed 1 and, for the output checks, on seed 2.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four pipelines")
	}
	bj := loadBenchmarkJSON(t)
	scratch := t.TempDir()
	for _, w := range workloads {
		out, err := measure(w, options{Seed: 1, Seconds: nominalSeconds, Quick: true, Trace: true, Scratch: scratch})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, out.Failed, out.Attempted, out.Det.Failures)
		}
		for _, tc := range []struct {
			defs  []metricDef
			trace bool
		}{{bj.EndToEnd, false}, {bj.PerLayer, true}} {
			res := out.result(tc.trace)
			if len(res.Metrics) != len(tc.defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, tc.trace, len(res.Metrics), len(tc.defs))
			}
			for _, m := range tc.defs {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				case !tc.trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
		// The uncovered share is mostly the benchmark's own hub.FrameSig of
		// each published frame, which the race detector slows several times.
		floor := 95.0
		if raceflag.Enabled {
			floor = 85
		}
		if c := out.Layer["ledger.coverage_pct"]; c < floor || c > 101 {
			t.Errorf("%s: ledger.coverage_pct = %.2f, want %.0f..100", w.Name, c, floor)
		}
		// Informational: exact pixels may differ across architectures, and a
		// change that alters them on purpose regenerates golden.json.
		t.Logf("%s: golden_match %s, ledger.coverage_pct %.2f", w.Name, out.Det.GoldenMatch, out.Layer["ledger.coverage_pct"])

		out, err = measure(w, options{Seed: 2, Seconds: nominalSeconds, Quick: true, Scratch: scratch})
		if err != nil {
			t.Fatalf("%s seed 2: %v", w.Name, err)
		}
		if out.Failed != 0 {
			t.Errorf("%s seed 2: %d of %d operations failed: %v", w.Name, out.Failed, out.Attempted, out.Det.Failures)
		}
	}
}
