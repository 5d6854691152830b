package compositing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

// randFrames builds n frames with random sparse coverage.
func randFrames(n, w, h int, seed int64) []*fb.Frame {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*fb.Frame, n)
	for i := range frames {
		f := fb.New(w, h)
		for k := 0; k < w*h/3; k++ {
			x := rng.Intn(w)
			y := rng.Intn(h)
			f.DepthSet(x, y, 1+rng.Float64()*10, vec.New(rng.Float64(), rng.Float64(), rng.Float64()))
		}
		frames[i] = f
	}
	return frames
}

// bruteComposite merges by scanning all frames per pixel.
func bruteComposite(frames []*fb.Frame) *fb.Frame {
	out := fb.New(frames[0].W, frames[0].H)
	for i := range out.Depth {
		for _, f := range frames {
			if f.Depth[i] < out.Depth[i] {
				out.Depth[i] = f.Depth[i]
				out.Color[i] = f.Color[i]
			}
		}
	}
	return out
}

func framesEqual(a, b *fb.Frame) bool {
	for i := range a.Color {
		if a.Color[i] != b.Color[i] {
			return false
		}
		da, db := a.Depth[i], b.Depth[i]
		if da != db && !(math.IsInf(da, 1) && math.IsInf(db, 1)) {
			return false
		}
	}
	return true
}

func TestAlgorithmNames(t *testing.T) {
	if DirectSend.String() != "direct-send" || BinarySwap.String() != "binary-swap" {
		t.Error("names wrong")
	}
}

func TestMergeIntoKeepsNearest(t *testing.T) {
	a := fb.New(2, 1)
	b := fb.New(2, 1)
	a.DepthSet(0, 0, 5, vec.New(1, 0, 0))
	b.DepthSet(0, 0, 3, vec.New(0, 1, 0))
	b.DepthSet(1, 0, 7, vec.New(0, 0, 1))
	mergeInto(a, b)
	if a.At(0, 0) != vec.New(0, 1, 0) {
		t.Error("nearer fragment lost")
	}
	if a.At(1, 0) != vec.New(0, 0, 1) {
		t.Error("uncovered pixel not filled")
	}
}

func TestCompositeMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for _, alg := range []Algorithm{DirectSend, BinarySwap} {
			// Fresh frames per algorithm: Composite merges into them.
			frames := randFrames(n, 32, 24, int64(n))
			want := bruteComposite(frames)
			got, stats, err := Composite(frames, alg)
			if err != nil {
				t.Fatal(err)
			}
			if !framesEqual(got, want) {
				t.Errorf("%v with %d ranks: wrong image", alg, n)
			}
			if n > 1 && (stats.BytesMoved <= 0 || stats.MessagesMoved <= 0) {
				t.Errorf("%v with %d ranks: no communication accounted", alg, n)
			}
		}
	}
}

// TestCompositeMergesIntoTheRootFrame pins the in-place contract: the
// composite is frames[0] itself, direct send leaves the other ranks'
// frames alone, and compositing the merged frames again (as a caller
// timing one set of frames repeatedly does) gives the same pixels.
func TestCompositeMergesIntoTheRootFrame(t *testing.T) {
	for _, alg := range []Algorithm{DirectSend, BinarySwap} {
		for _, n := range []int{2, 3, 4, 7} {
			frames := randFrames(n, 16, 16, int64(n))
			want := bruteComposite(frames)
			inputs := make([]*fb.Frame, n)
			for i, f := range frames {
				inputs[i] = fb.New(f.W, f.H)
				if err := inputs[i].CopyFrom(f); err != nil {
					t.Fatal(err)
				}
			}
			got, _, err := Composite(frames, alg)
			if err != nil {
				t.Fatal(err)
			}
			if got != frames[0] {
				t.Fatalf("%v with %d ranks: the composite is not frames[0]", alg, n)
			}
			if !framesEqual(got, want) {
				t.Fatalf("%v with %d ranks: wrong image", alg, n)
			}
			if alg == DirectSend {
				for i := 1; i < n; i++ {
					if !framesEqual(frames[i], inputs[i]) {
						t.Errorf("direct send with %d ranks wrote frame %d", n, i)
					}
				}
			}
			again, _, err := Composite(frames, alg)
			if err != nil {
				t.Fatal(err)
			}
			if !framesEqual(again, want) {
				t.Errorf("%v with %d ranks: a second composite changed the image", alg, n)
			}
		}
	}
}

func TestCompositeErrors(t *testing.T) {
	if _, _, err := Composite(nil, DirectSend); err == nil {
		t.Error("empty input accepted")
	}
	frames := []*fb.Frame{fb.New(4, 4), fb.New(5, 4)}
	if _, _, err := Composite(frames, BinarySwap); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

func TestBinarySwapCommunicationShape(t *testing.T) {
	// Binary swap's aggregate volume is comparable to direct send's
	// (within ~2x) — its advantage is the critical path: log2(P) rounds
	// with all links busy, versus one round funneling P-1 full frames
	// through the root. Check both properties.
	frames := randFrames(16, 64, 64, 1)
	_, ds, _ := Composite(frames, DirectSend)
	_, bs, _ := Composite(frames, BinarySwap)
	if bs.BytesMoved > 2*ds.BytesMoved {
		t.Errorf("binary swap moved %d bytes > 2x direct send %d", bs.BytesMoved, ds.BytesMoved)
	}
	if bs.Rounds <= ds.Rounds {
		t.Errorf("binary swap rounds %d <= direct send %d", bs.Rounds, ds.Rounds)
	}
	if bs.MessagesMoved <= ds.MessagesMoved {
		t.Errorf("binary swap messages %d <= direct send %d", bs.MessagesMoved, ds.MessagesMoved)
	}
}

// Property: compositing is order-insensitive (nearest-depth merge is
// commutative and associative when depths are distinct).
func TestCompositeOrderInsensitiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		frames := randFrames(n, 16, 16, seed)
		a, _, err := Composite(frames, BinarySwap)
		if err != nil {
			return false
		}
		// Reverse order.
		rev := make([]*fb.Frame, n)
		for i := range frames {
			rev[i] = frames[n-1-i]
		}
		b, _, err := Composite(rev, DirectSend)
		if err != nil {
			return false
		}
		return framesEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestModelCost(t *testing.T) {
	// Single rank: free.
	if ModelCost(DirectSend, 1, 1<<20, 1e9, 1e-6) != 0 {
		t.Error("single rank should cost 0")
	}
	// Binary swap should beat direct send for large P.
	ds := ModelCost(DirectSend, 256, 1<<20, 1e9, 1e-6)
	bs := ModelCost(BinarySwap, 256, 1<<20, 1e9, 1e-6)
	if bs >= ds {
		t.Errorf("binary swap cost %v >= direct send %v at 256 ranks", bs, ds)
	}
	// Costs grow with rank count for direct send.
	if ModelCost(DirectSend, 8, 1<<20, 1e9, 1e-6) >= ds {
		t.Error("direct send cost should grow with ranks")
	}
}

func BenchmarkComposite16(b *testing.B) {
	frames := randFrames(16, 256, 256, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Composite(frames, BinarySwap); err != nil {
			b.Fatal(err)
		}
	}
}
