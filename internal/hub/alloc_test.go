package hub

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestHubBroadcastSteadyStateAllocs is the fan-out allocation gate:
// publishing a frame to live subscribers — frame->grid conversion, vtkio
// encode, refcounted pooled payload and fanout, the queue hand-offs, the
// one shared encoding, the per-connection sends, and the subscriber-side
// decodes — must allocate nothing once warm. AllocsPerRun counts mallocs
// across all goroutines, so the sender goroutines and the subscriber
// clients are inside the budget.
//
// Under delta+flate the subscribers inflate every frame too, and the
// budget is the same zero however many subscribers share the encoding —
// one subscriber or three — whether the frames are coherent and go out as
// deltas or independent and go out as the keyframe transport.Choose finds
// smaller.
func TestHubBroadcastSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	for _, tc := range []struct {
		codec      transport.CodecID
		subs       int
		incoherent bool
	}{
		{transport.CodecRaw, 3, false},
		{transport.CodecDelta, 3, false},
		{transport.CodecDeltaFlate, 1, false},
		{transport.CodecDeltaFlate, 3, false},
		{transport.CodecDeltaFlate, 3, true},
	} {
		name := fmt.Sprintf("%s-%d", tc.codec, tc.subs)
		if tc.incoherent {
			name += "-incoherent"
		}
		t.Run(name, func(t *testing.T) {
			broadcastAllocs(t, tc.codec, tc.subs, tc.incoherent)
		})
	}
}

// keyframes is the transport's count of frames a temporal sender put
// out as keyframes.
var keyframes = telemetry.Default.Counter("transport.keyframes")

func broadcastAllocs(t *testing.T, codec transport.CodecID, subs int, incoherent bool) {
	// A small history reaches eviction steady state during warm-up, so
	// each publish recycles the buffer it evicts; a roomy queue plus the
	// drain barrier below keeps the journaling drop path (which
	// allocates) out of the loop.
	h, _ := startHub(t, Config{MaxSubs: subs, Queue: 64, History: 4, Codec: codec})
	defer h.Close()

	received := make(chan struct{}, 1024)
	for i := 0; i < subs; i++ {
		c := dialSub(t, h.Addr(), "s", -1)
		defer c.Close()
		c.SetDatasetReuse(true)
		go func() {
			for {
				typ, _, _, err := c.Recv()
				if err != nil || typ == transport.MsgDone {
					return
				}
				received <- struct{}{}
			}
		}()
	}
	waitFor(t, "subscribers", func() bool { return h.Subscribers() == subs })

	f := fb.New(48, 32)
	for i := range f.Color {
		f.Color[i] = vec.V3{X: float64(i%97) / 97, Y: 0.5, Z: 0.25}
		f.Depth[i] = float64(i % 13)
	}
	// Incoherent: three independent frames in turn, each large enough
	// for the estimate to sample past the grid's unchanging preamble.
	noise := [3]*fb.Frame{noiseFrame(1, 100, 80), noiseFrame(2, 100, 80), noiseFrame(3, 100, 80)}
	step := 0
	publish := func() {
		if incoherent {
			h.PublishFrame(step, noise[step%len(noise)])
		} else {
			// Perturb so frames are not identical (a degenerate stream
			// would be a weaker gate).
			f.Color[step%len(f.Color)].X += 0.001
			h.PublishFrame(step, f)
		}
		step++
		// Barrier: wait until every subscriber has this frame, so queue
		// depth stays at 0-1 (no drops) and the refcount/pool cycle
		// completes inside the measured op.
		for i := 0; i < subs; i++ {
			<-received
		}
		for h.Backlog() > 0 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ {
		publish()
	}
	before := h.Published()
	dropsBefore := ctrDropped.Value()
	encodedBefore := ctrEncoded.Value()
	keysBefore := keyframes.Value()
	if allocs := testing.AllocsPerRun(50, publish); allocs > 0 {
		t.Errorf("broadcast to %d subscribers allocates %.1f times per frame, want 0", subs, allocs)
	}
	// Non-vacuity: the gate really published, nothing was shed, and a
	// codec that encodes ran once per frame.
	got := h.Published() - before
	if got < 50 {
		t.Errorf("published %d frames during AllocsPerRun, want >= 50", got)
	}
	if drops := ctrDropped.Value() - dropsBefore; drops != 0 {
		t.Errorf("gate dropped %d frames; the alloc budget only covers the no-drop path", drops)
	}
	if runs := ctrEncoded.Value() - encodedBefore; codec != transport.CodecRaw && runs != got {
		t.Errorf("%d codec runs for %d frames to %d subscribers, want one per frame", runs, got, subs)
	}
	// Every incoherent frame went out as the keyframe, to every
	// subscriber; no coherent one did.
	wantKeys := int64(0)
	if incoherent {
		wantKeys = got * int64(subs)
	}
	if keys := keyframes.Value() - keysBefore; keys != wantKeys {
		t.Errorf("%d keyframes sent for %d frames to %d subscribers, want %d", keys, got, subs, wantKeys)
	}
}

// TestFitKeepsRoomForALongerEncoding: an encoding buffer reallocated
// for n bytes takes a later encoding up to an eighth longer in place, and
// only a longer one reallocates it; a payload buffer stays exact.
func TestFitKeepsRoomForALongerEncoding(t *testing.T) {
	enc := func(b []byte, n int) []byte { return fit(b, n, n/8) }
	b := enc(nil, 800)
	if len(b) != 800 || cap(b) != 900 {
		t.Fatalf("encoding of 800: len %d cap %d, want 800 and 900", len(b), cap(b))
	}
	if c := enc(b, 900); &c[0] != &b[0] || len(c) != 900 {
		t.Error("an encoding an eighth longer reallocated the buffer")
	}
	if c := enc(b, 901); &c[0] == &b[0] || len(c) != 901 || cap(c) != 901+901/8 {
		t.Errorf("901 bytes into room for 900: len %d cap %d, want a new buffer of 901 and %d", len(c), cap(c), 901+901/8)
	}
	if p := fit(nil, 800, 0); cap(p) != 800 {
		t.Errorf("a payload of 800 has cap %d, want exactly 800", cap(p))
	}
}
