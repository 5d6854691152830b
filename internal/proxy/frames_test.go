package proxy

import (
	"runtime"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/raceflag"
)

// sigPublisher records what each publish lent it: the step, the frame's
// signature and covered pixels, and the frame pointer itself (to check
// the lending, never to read the frame after the call).
type sigPublisher struct {
	steps   []int
	sigs    []uint32
	covered []int
	frames  []*fb.Frame
}

func (p *sigPublisher) PublishFrame(step int, f *fb.Frame) {
	p.steps = append(p.steps, step)
	p.sigs = append(p.sigs, hub.FrameSig(f))
	p.covered = append(p.covered, f.CoveredPixels())
	p.frames = append(p.frames, f)
}

// TestVizProxyLendsTwoFrames checks the frame-ownership contract: every
// step's final image is published from one of the proxy's two frames,
// without a copy, alternating between them; LastFrame is the frame last
// published; and a failed step publishes nothing and leaves LastFrame
// as the last completed step left it.
func TestVizProxyLendsTwoFrames(t *testing.T) {
	pub := &sigPublisher{}
	vp, err := NewVizProxy(VizConfig{Width: 48, Height: 40, Algorithm: "points", ImagesPerStep: 2, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	if vp.LastFrame() != nil {
		t.Fatal("LastFrame before the first step is not nil")
	}
	for step := 0; step < 4; step++ {
		if _, err := vp.RenderStep(step, testCloud(300, int64(step)+1)); err != nil {
			t.Fatal(err)
		}
		if got := pub.frames[step]; got != vp.LastFrame() {
			t.Fatalf("step %d: published frame is not LastFrame", step)
		}
	}
	if pub.frames[0] == pub.frames[1] || pub.frames[0] != pub.frames[2] || pub.frames[1] != pub.frames[3] {
		t.Error("steps do not alternate between two frames")
	}
	want := hub.FrameSig(vp.LastFrame())
	if want != pub.sigs[3] {
		t.Error("LastFrame changed after it was published")
	}
	// A grid is the wrong kind for "points": the step fails mid-render.
	if _, err := vp.RenderStep(4, data.NewStructuredGrid(4, 4, 4)); err == nil {
		t.Fatal("rendering a grid with points succeeded")
	}
	if len(pub.steps) != 4 || vp.LastFrame() != pub.frames[3] || hub.FrameSig(vp.LastFrame()) != want {
		t.Error("a failed step published or disturbed the last completed frame")
	}
}

// TestVizProxyMemoryFlatAllocs is the memory gate behind rendering in
// place: 100 steps at 256² through a publisher. After a collection the
// live heap grows by less than one frame between steps 10 and 100 (it
// grew by a frame per step while each StepResult kept a copy), and a
// step allocates less than a tenth of a frame.
func TestVizProxyMemoryFlatAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	const size, steps, from = 256, 100, 10
	frameBytes := uint64(size * size * (24 + 8)) // float64 colour and depth
	pub := &sigPublisher{}
	vp, err := NewVizProxy(VizConfig{Width: size, Height: size, Algorithm: "points", ImagesPerStep: 1, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	ds := testCloud(2_000, 5)
	var ms runtime.MemStats
	measure := func() (live, total uint64) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.TotalAlloc
	}
	var live0, total0 uint64
	for step := 0; step < steps; step++ {
		if step == from {
			live0, total0 = measure()
		}
		if _, err := vp.RenderStep(step, ds); err != nil {
			t.Fatal(err)
		}
	}
	live1, total1 := measure()
	if len(pub.steps) != steps || pub.covered[steps-1] == 0 {
		t.Fatalf("published %d frames, last covering %d pixels", len(pub.steps), pub.covered[len(pub.covered)-1])
	}
	if live1 > live0 && live1-live0 >= frameBytes {
		t.Errorf("live heap grew %d KiB over steps %d..%d, want under one frame (%d KiB)",
			(live1-live0)>>10, from, steps, frameBytes>>10)
	}
	if perStep := (total1 - total0) / (steps - from); perStep >= frameBytes/10 {
		t.Errorf("a step allocates %d KiB, want under a tenth of a frame (%d KiB)", perStep>>10, frameBytes/10>>10)
	}
}
