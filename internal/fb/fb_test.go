package fb

import (
	"bytes"
	"image/png"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/vec"
)

func TestNewFrameCleared(t *testing.T) {
	f := New(4, 3)
	if f.W != 4 || f.H != 3 || len(f.Color) != 12 || len(f.Depth) != 12 {
		t.Fatalf("frame shape wrong: %+v", f)
	}
	for i := range f.Depth {
		if !math.IsInf(f.Depth[i], 1) {
			t.Fatal("depth not infinite after New")
		}
	}
	if f.CoveredPixels() != 0 {
		t.Error("fresh frame reports coverage")
	}
}

func TestDepthSetRespectsDepth(t *testing.T) {
	f := New(2, 2)
	red := vec.New(1, 0, 0)
	green := vec.New(0, 1, 0)
	f.DepthSet(0, 0, 5, red)
	f.DepthSet(0, 0, 10, green) // farther: ignored
	if f.At(0, 0) != red {
		t.Error("farther write overwrote nearer")
	}
	f.DepthSet(0, 0, 2, green) // nearer: wins
	if f.At(0, 0) != green {
		t.Error("nearer write did not win")
	}
	// Out of bounds: no panic, no effect.
	f.DepthSet(-1, 0, 1, red)
	f.DepthSet(0, 5, 1, red)
	if f.CoveredPixels() != 1 {
		t.Errorf("covered = %d", f.CoveredPixels())
	}
}

func TestSetAndAt(t *testing.T) {
	f := New(3, 3)
	c := vec.New(0.2, 0.4, 0.6)
	f.Set(1, 2, c)
	if f.At(1, 2) != c {
		t.Error("Set/At mismatch")
	}
	if f.At(-1, 0) != (vec.V3{}) || f.At(0, 9) != (vec.V3{}) {
		t.Error("out-of-bounds At should be black")
	}
	f.Set(-1, -1, c) // no panic
}

func TestClear(t *testing.T) {
	f := New(2, 2)
	f.DepthSet(0, 0, 1, vec.New(1, 1, 1))
	bg := vec.New(0.1, 0.1, 0.1)
	f.Clear(bg)
	if f.At(0, 0) != bg || f.CoveredPixels() != 0 {
		t.Error("Clear did not reset")
	}
}

func TestRMSEIdentical(t *testing.T) {
	a := New(8, 8)
	b := New(8, 8)
	got, err := RMSE(a, b)
	if err != nil || got != 0 {
		t.Errorf("RMSE identical = %v, %v", got, err)
	}
}

func TestRMSEKnownValue(t *testing.T) {
	a := New(2, 1)
	b := New(2, 1)
	// One pixel differs by (1,0,0): MSE = 1/2 per pixel set of 2 pixels
	// summed over channels: sum = 1, mean = 1/2, rmse = sqrt(0.5).
	a.Set(0, 0, vec.New(1, 0, 0))
	got, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
}

func TestRMSESizeMismatch(t *testing.T) {
	if _, err := RMSE(New(2, 2), New(3, 2)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// Property: RMSE is symmetric and zero iff frames are equal (on clamped colors).
func TestRMSESymmetryProperty(t *testing.T) {
	f := func(vals []float64) bool {
		a := New(4, 4)
		b := New(4, 4)
		for i, v := range vals {
			if i >= 16 {
				break
			}
			x := math.Mod(math.Abs(v), 1)
			a.Color[i] = vec.New(x, x/2, x/3)
			b.Color[i] = vec.New(x/3, x, x/2)
		}
		ab, _ := RMSE(a, b)
		ba, _ := RMSE(b, a)
		return math.Abs(ab-ba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	f := New(16, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			f.Set(x, y, vec.New(float64(x)/15, float64(y)/7, 0.5))
		}
	}
	var buf bytes.Buffer
	if err := f.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 16 || img.Bounds().Dy() != 8 {
		t.Errorf("decoded size = %v", img.Bounds())
	}
}

func TestSavePNG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.png")
	if err := New(4, 4).SavePNG(path); err != nil {
		t.Fatal(err)
	}
}

func TestColormapLookup(t *testing.T) {
	for name, cm := range map[string]*Colormap{"viridis": Viridis, "hot": Hot, "gray": Gray} {
		lo := cm.Lookup(0)
		hi := cm.Lookup(1)
		if lo == hi {
			t.Errorf("%s: endpoints equal", name)
		}
		// Clamping.
		if cm.Lookup(-5) != lo || cm.Lookup(7) != hi {
			t.Errorf("%s: clamp failed", name)
		}
		// Monotone sampling stays within [0,1] per channel.
		for i := 0; i <= 20; i++ {
			c := cm.Lookup(float64(i) / 20)
			if c.MinComp() < -1e-9 || c.MaxComp() > 1+1e-9 {
				t.Errorf("%s: color out of range at %d: %v", name, i, c)
			}
		}
	}
}

func TestColormapDegenerate(t *testing.T) {
	empty := &Colormap{}
	if empty.Lookup(0.5) != (vec.V3{}) {
		t.Error("empty colormap should be black")
	}
	one := &Colormap{stops: []vec.V3{{X: 1}}}
	if one.Lookup(0.9) != (vec.V3{X: 1}) {
		t.Error("single-stop colormap wrong")
	}
}

func TestGrayIsLinear(t *testing.T) {
	mid := Gray.Lookup(0.5)
	if math.Abs(mid.X-0.5) > 1e-12 || mid.X != mid.Y || mid.Y != mid.Z {
		t.Errorf("gray(0.5) = %v", mid)
	}
}
