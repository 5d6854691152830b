package cosmo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
)

func smallParams() Params {
	return Params{Particles: 20_000, BoxSize: 50, Halos: 20, HaloFraction: 0.6, Seed: 3}
}

func TestGenerateCountAndBounds(t *testing.T) {
	p := smallParams()
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != p.Particles {
		t.Fatalf("count = %d", c.Count())
	}
	b := c.Bounds()
	if b.Min.MinComp() < 0 || b.Max.MaxComp() > p.BoxSize {
		t.Errorf("particles escape the box: %+v", b)
	}
	if _, err := c.Field("speed"); err != nil {
		t.Error("speed field missing")
	}
}

// TestGenerateDeterministic generates the same Params inline and on four
// workers: every column and field must agree, whichever grain drew it.
func TestGenerateDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	b, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same params produced different datasets at GOMAXPROCS 1 and 4")
	}
}

// TestGenerateDigest pins the generated data bit for bit: SHA-256 over
// every column and field of the cloud, for background-only, default and
// all-halo universes, two seeds and two epochs. The digests were computed
// with one rand.NewSource per particle, so they hold the lazy stream to
// math/rand's sequence on whole datasets.
func TestGenerateDigest(t *testing.T) {
	want := map[string]string{
		"background/seed=1/step=0":  "0ad490f16bae7ad68efa55532dd3a60a7b02029ff8a2bb10c11ef03a54bf8698",
		"background/seed=1/step=3":  "6a85823c53a02fedb8af9a42e23e7d6460b404d6784d9b066b1e2370cbc67ae3",
		"background/seed=-7/step=0": "5cfa2bcaf52f8b794b97ad6f2824695163d76228a78dd3183d06f18211505325",
		"background/seed=-7/step=3": "76b49b15b844ee2843f074a9efd20d2f45948a5ae10ddf57988e8b209261f26b",
		"default/seed=1/step=0":     "541f22897b511b60db5864e0394a3c21e14a31e4defbb8dd67ca27f97c760ad8",
		"default/seed=1/step=3":     "5ec403fc4b0bcd2f15e08f6abdee4f0e9844ea1633b5d78d69b5033516e0c7fa",
		"default/seed=-7/step=0":    "8da309a133863f2bc7ccef12300152b1abc0d969b0de686c2d482aad014e86e9",
		"default/seed=-7/step=3":    "b997d06909562e050e3b29ac3ee3f381138c46ff3ea3de56dca36635030a84bd",
		"halos/seed=1/step=0":       "8cb42f96df26c622bdc031b0cf9500421dde10c617ee5b6abc35a8f9fc0c54c0",
		"halos/seed=1/step=3":       "b90770e1aedb902de3aa7e9914570419c4a1bdbb070947d321cf88106d928d73",
		"halos/seed=-7/step=0":      "730b0b8276e525a5f89d4db62cf337a1a74a114a6e691f9c181d4e59100d7e0a",
		"halos/seed=-7/step=3":      "aa3997387b4e8c20fa893e2c7033e26aa1fc361f5189b1702a337efb8762d4cf",
	}
	for _, shape := range []struct {
		name string
		edit func(*Params)
	}{
		{"background", func(p *Params) { p.Halos = 0 }},
		{"default", func(p *Params) {}},
		{"halos", func(p *Params) { p.HaloFraction = 1 }},
	} {
		for _, seed := range []int64{1, -7} {
			for _, step := range []int{0, 3} {
				p := DefaultParams()
				p.Particles = 5_000
				p.Seed, p.TimeStep = seed, step
				shape.edit(&p)
				name := fmt.Sprintf("%s/seed=%d/step=%d", shape.name, seed, step)
				c, err := Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := cloudDigest(c); got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// cloudDigest hashes IDs, positions, velocities and every named field in
// little-endian order.
func cloudDigest(c *data.PointCloud) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, c.IDs)
	for _, col := range [][]float32{c.X, c.Y, c.Z, c.VX, c.VY, c.VZ} {
		binary.Write(h, binary.LittleEndian, col)
	}
	for _, f := range c.Fields {
		h.Write([]byte(f.Name))
		binary.Write(h, binary.LittleEndian, f.Values)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateSeedMatters(t *testing.T) {
	p := smallParams()
	a, _ := Generate(p)
	p.Seed++
	b, _ := Generate(p)
	if reflect.DeepEqual(a.X, b.X) {
		t.Error("different seeds produced identical positions")
	}
}

func TestGenerateTimeStepEvolves(t *testing.T) {
	p := smallParams()
	a, _ := Generate(p)
	p.TimeStep = 5
	b, _ := Generate(p)
	if reflect.DeepEqual(a.X, b.X) {
		t.Error("time steps produced identical positions")
	}
}

func TestGenerateClusteringExists(t *testing.T) {
	// With 60% of mass in halos, the particle distribution must be far
	// from uniform: count particles in coarse cells and check the
	// variance-to-mean ratio exceeds the Poisson expectation (~1).
	p := smallParams()
	c, _ := Generate(p)
	const cells = 8
	counts := make([]float64, cells*cells*cells)
	cw := p.BoxSize / cells
	for i := 0; i < c.Count(); i++ {
		pos := c.Pos(i)
		ci := int(pos.X / cw)
		cj := int(pos.Y / cw)
		ck := int(pos.Z / cw)
		if ci >= cells {
			ci = cells - 1
		}
		if cj >= cells {
			cj = cells - 1
		}
		if ck >= cells {
			ck = cells - 1
		}
		counts[ci+cells*(cj+cells*ck)]++
	}
	mean := float64(c.Count()) / float64(len(counts))
	varsum := 0.0
	for _, n := range counts {
		varsum += (n - mean) * (n - mean)
	}
	vmr := varsum / float64(len(counts)) / mean
	if vmr < 5 {
		t.Errorf("variance/mean = %.2f; expected strong clustering (>5)", vmr)
	}
}

func TestGenerateNoClusteringWhenDisabled(t *testing.T) {
	p := smallParams()
	p.Halos = 0
	c, _ := Generate(p)
	const cells = 4
	counts := make([]float64, cells*cells*cells)
	cw := p.BoxSize / cells
	for i := 0; i < c.Count(); i++ {
		pos := c.Pos(i)
		ci := minI(int(pos.X/cw), cells-1)
		cj := minI(int(pos.Y/cw), cells-1)
		ck := minI(int(pos.Z/cw), cells-1)
		counts[ci+cells*(cj+cells*ck)]++
	}
	mean := float64(c.Count()) / float64(len(counts))
	varsum := 0.0
	for _, n := range counts {
		varsum += (n - mean) * (n - mean)
	}
	vmr := varsum / float64(len(counts)) / mean
	if vmr > 3 {
		t.Errorf("variance/mean = %.2f for uniform field; expected ~1", vmr)
	}
}

func TestGenerateValidatesParams(t *testing.T) {
	if _, err := Generate(Params{Particles: -1, BoxSize: 1}); err == nil {
		t.Error("negative particles accepted")
	}
	if _, err := Generate(Params{Particles: 10, BoxSize: 0}); err == nil {
		t.Error("zero box accepted")
	}
	// Degenerate but legal cases.
	c, err := Generate(Params{Particles: 0, BoxSize: 1, Seed: 1})
	if err != nil || c.Count() != 0 {
		t.Errorf("empty generation: %v, %d", err, c.Count())
	}
	c, err = Generate(Params{Particles: 5, BoxSize: 1, Halos: 3, HaloFraction: 2, Seed: 1})
	if err != nil || c.Count() != 5 {
		t.Errorf("clamped fraction: %v", err)
	}
}

func TestVelocitiesAreFinite(t *testing.T) {
	c, _ := Generate(smallParams())
	for i := 0; i < c.Count(); i++ {
		if !c.Vel(i).IsFinite() || !c.Pos(i).IsFinite() {
			t.Fatalf("particle %d has non-finite state", i)
		}
	}
}

func TestHaloVelocityDispersionExceedsBackground(t *testing.T) {
	// Halo particles carry virial dispersion; compare the speed spread of
	// the halo tail (IDs >= nBg) against the background.
	p := smallParams()
	c, _ := Generate(p)
	nHalo := int(float64(p.Particles) * p.HaloFraction)
	nBg := p.Particles - nHalo
	bgVar := speedVariance(c.VX[:nBg], c.VY[:nBg], c.VZ[:nBg])
	haloVar := speedVariance(c.VX[nBg:], c.VY[nBg:], c.VZ[nBg:])
	if haloVar < bgVar {
		t.Errorf("halo velocity variance %.1f < background %.1f", haloVar, bgVar)
	}
}

func speedVariance(vx, vy, vz []float32) float64 {
	var sum, sum2 float64
	for i := range vx {
		s := math.Sqrt(float64(vx[i])*float64(vx[i]) + float64(vy[i])*float64(vy[i]) + float64(vz[i])*float64(vz[i]))
		sum += s
		sum2 += s * s
	}
	n := float64(len(vx))
	mean := sum / n
	return sum2/n - mean*mean
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkGenerate100k(b *testing.B) {
	p := smallParams()
	p.Particles = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateAllocs gates Generate's allocation count: the cloud, the
// halo tables and one Rand per grain, whatever the particle count — no
// source per particle. GOMAXPROCS 1 fixes the grain count.
func TestGenerateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// AllocsPerRun counts mallocs process-wide, and a collection that
	// starts inside a run allocates its own bookkeeping.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		p := smallParams()
		p.Particles = n
		return testing.AllocsPerRun(3, func() {
			if _, err := Generate(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2_000), allocs(20_000); small != large {
		t.Errorf("Generate allocates %.0f times for 2 000 particles and %.0f for 20 000", small, large)
	}
}
