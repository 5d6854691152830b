package fb

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/vec"
)

func noisyFrame(w, h int, seed int64, noise float64) *Frame {
	rng := rand.New(rand.NewSource(seed))
	f := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := 0.5 + 0.4*math.Sin(float64(x)/5)*math.Cos(float64(y)/7)
			v := base + rng.NormFloat64()*noise
			f.Set(x, y, vec.Splat(v).Clamp(0, 1))
		}
	}
	return f
}

func TestSSIMIdentical(t *testing.T) {
	f := noisyFrame(64, 64, 1, 0)
	got, err := SSIM(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM(f, f) = %v, want 1", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	ref := noisyFrame(64, 64, 1, 0)
	low := noisyFrame(64, 64, 2, 0.02)
	high := noisyFrame(64, 64, 3, 0.3)
	// Same base pattern: low noise should score higher than heavy noise.
	sLow, err := SSIM(ref, low)
	if err != nil {
		t.Fatal(err)
	}
	sHigh, err := SSIM(ref, high)
	if err != nil {
		t.Fatal(err)
	}
	if sLow <= sHigh {
		t.Errorf("SSIM low-noise %v <= high-noise %v", sLow, sHigh)
	}
	if sLow < 0.7 {
		t.Errorf("SSIM with 2%% noise = %v, implausibly low", sLow)
	}
	if sHigh > 0.8 {
		t.Errorf("SSIM with 30%% noise = %v, implausibly high", sHigh)
	}
}

func TestSSIMStructuralVsUniformShift(t *testing.T) {
	// SSIM's defining property: a small uniform brightness shift hurts
	// less than structural scrambling at equal RMSE-ish magnitude.
	ref := noisyFrame(64, 64, 1, 0)
	shifted := New(64, 64)
	for i, c := range ref.Color {
		shifted.Color[i] = c.Add(vec.Splat(0.1)).Clamp(0, 1)
	}
	scrambled := New(64, 64)
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(len(ref.Color))
	for i, j := range perm {
		scrambled.Color[i] = ref.Color[j]
	}
	sShift, _ := SSIM(ref, shifted)
	sScram, _ := SSIM(ref, scrambled)
	if sShift <= sScram {
		t.Errorf("uniform shift (%v) should score above scrambling (%v)", sShift, sScram)
	}
}

func TestSSIMSizeMismatch(t *testing.T) {
	if _, err := SSIM(New(8, 8), New(9, 8)); err == nil {
		t.Error("size mismatch accepted")
	}
}
