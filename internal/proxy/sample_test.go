package proxy

import (
	"fmt"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/sampling"
)

// steerRatio hands sp a sampling-ratio steer, as the visualization proxy
// forwards one; StepData applies it at the next step boundary.
func steerRatio(sp *SimProxy, ratio float64) {
	sp.wmu.Lock()
	sp.wire.Merge(hub.Msg{Kind: hub.KindSteer, Axes: hub.AxisRatio, Ratio: ratio})
	sp.wmu.Unlock()
}

// sameCloud holds got to want bit for bit: IDs, positions, velocities,
// field names and values.
func sameCloud(t *testing.T, what string, got, want *data.PointCloud) {
	t.Helper()
	if got.Count() != want.Count() || len(got.IDs) != len(want.IDs) || len(got.Fields) != len(want.Fields) {
		t.Fatalf("%s: %d particles, %d IDs and %d fields, want %d, %d and %d", what,
			got.Count(), len(got.IDs), len(got.Fields), want.Count(), len(want.IDs), len(want.Fields))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: ID %d is %d, want %d", what, i, got.IDs[i], want.IDs[i])
		}
	}
	arrays := func(p *data.PointCloud) [][]float32 { return [][]float32{p.X, p.Y, p.Z, p.VX, p.VY, p.VZ} }
	for a, w := range arrays(want) {
		if g := arrays(got)[a]; !sameBits(g, w) {
			t.Fatalf("%s: position/velocity array %d differs", what, a)
		}
	}
	for f := range want.Fields {
		if got.Fields[f].Name != want.Fields[f].Name || !sameBits(got.Fields[f].Values, want.Fields[f].Values) {
			t.Fatalf("%s: field %d is %q, want %q with the same values", what, f, got.Fields[f].Name, want.Fields[f].Name)
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSimStepDataIsTheFreshSample holds the proxy's owned sample to the
// fresh one, for every sampling method, while steering moves the ratio
// 0.5 → 0.8 → 0.2 so the cloud grows and then shrinks in place: each step
// is sampling.Points's fresh output bit for bit, fields included, in the
// same object every step, whose Generation advances. A raycast renderer
// caches its BVH by cloud and generation, so a unified run over the owned
// sample must render the frames a run over fresh clouds renders.
func TestSimStepDataIsTheFreshSample(t *testing.T) {
	const steps = 6
	src := &MemSource{}
	for step := 0; step < steps; step++ {
		src.Data = append(src.Data, testCloud(2_000, int64(step)+1))
	}
	ratios := map[int]float64{2: 0.8, 4: 0.2} // steered before these steps
	for _, m := range []sampling.Method{sampling.Random, sampling.Stride, sampling.Stratified} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := SimConfig{SamplingRatio: 0.5, SamplingMethod: m, Seed: 7}
			sp, err := NewSimProxy(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			owned, fresh := &sigPublisher{}, &sigPublisher{}
			viz := func(pub *sigPublisher) *VizProxy {
				vp, err := NewVizProxy(VizConfig{Width: 64, Height: 48, Algorithm: "raycast", Publisher: pub})
				if err != nil {
					t.Fatal(err)
				}
				return vp
			}
			ownedViz, freshViz := viz(owned), viz(fresh)
			var first *data.PointCloud
			var gen uint64
			ratio := cfg.SamplingRatio
			for step := 0; step < steps; step++ {
				if r, ok := ratios[step]; ok {
					steerRatio(sp, r)
					ratio = r
				}
				ds, err := sp.StepData(step)
				if err != nil {
					t.Fatal(err)
				}
				got := ds.(*data.PointCloud)
				want, err := sampling.Points(src.Data[step].(*data.PointCloud), ratio, m, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("step %d ratio %g", step, ratio)
				sameCloud(t, what, got, want)
				if _, err := ownedViz.RenderStep(step, got); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if _, err := freshViz.RenderStep(step, want); err != nil {
					t.Fatal(err)
				}
				if owned.sigs[step] != fresh.sigs[step] {
					t.Errorf("%s: the frame rendered from the owned sample differs from the fresh sample's", what)
				}
				if step == 0 {
					first = got
				} else if got != first {
					t.Fatalf("%s: the sample is a new object, want the proxy's own", what)
				} else if got.Generation() <= gen {
					t.Errorf("%s: generation %d did not advance past %d", what, got.Generation(), gen)
				}
				gen = got.Generation()
			}
		})
	}
}

// TestSimStepDataWarmAllocs is the gate on the owned sample: once warm,
// a stratified step at one rank allocates nothing — not the sample, not
// the sampler's scratch, not its generator.
func TestSimStepDataWarmAllocs(t *testing.T) {
	src := &MemSource{Data: []data.Dataset{testCloud(5_000, 1), testCloud(5_000, 2)}}
	sp, err := NewSimProxy(SimConfig{SamplingRatio: 0.5, SamplingMethod: sampling.Stratified, Seed: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	next := func() {
		if _, err := sp.StepData(step % 2); err != nil {
			t.Fatal(err)
		}
		step++
	}
	next()
	next()
	if allocs := testing.AllocsPerRun(20, next); allocs != 0 {
		t.Errorf("a warm stratified StepData allocates %.1f times, want 0", allocs)
	}
}
