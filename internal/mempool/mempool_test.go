package mempool

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/raceflag"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11},
		{1 << maxClass, maxClass},
		{1<<maxClass + 1, maxClass + 1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPutClassFor(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{0, -1}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1 << maxClass, maxClass},
		{1 << (maxClass + 1), -1},
	}
	for _, c := range cases {
		if got := putClassFor(c.capacity); got != c.want {
			t.Errorf("putClassFor(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
	// Invariant: a buffer Put at capacity C serves any future Get(n) with
	// n <= C from its class.
	for _, capacity := range []int{1, 7, 64, 1000, 4096} {
		c := putClassFor(capacity)
		if c < 0 {
			t.Fatalf("putClassFor(%d) < 0", capacity)
		}
		if 1<<c > capacity {
			t.Errorf("putClassFor(%d) = %d: class size %d exceeds capacity", capacity, c, 1<<c)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	b := Bytes(1000)
	if len(b) != 1000 {
		t.Fatalf("len = %d, want 1000", len(b))
	}
	if cap(b) != 1024 {
		t.Fatalf("cap = %d, want size class 1024", cap(b))
	}
	b[0], b[999] = 0xAA, 0xBB
	PutBytes(b)
	// A same-class request must be servable without growing.
	b2 := Bytes(600)
	if len(b2) != 600 {
		t.Fatalf("len = %d, want 600", len(b2))
	}
	PutBytes(b2)
}

func TestBytesOversized(t *testing.T) {
	n := 1<<maxClass + 1
	b := Bytes(n)
	if len(b) != n {
		t.Fatalf("len = %d, want %d", len(b), n)
	}
	PutBytes(b) // must not panic; simply unpooled
}

func TestAcquireFrameUncleared(t *testing.T) {
	f := AcquireFrameUncleared(16, 8)
	if f.W != 16 || f.H != 8 || len(f.Color) != 16*8 || len(f.Depth) != 16*8 {
		t.Fatalf("got %dx%d with %d/%d pixels, want 16x8", f.W, f.H, len(f.Color), len(f.Depth))
	}
	ReleaseFrame(f)
	// Distinct dimensions draw from distinct pools.
	h := AcquireFrameUncleared(8, 8)
	if h.W != 8 || h.H != 8 {
		t.Fatalf("got %dx%d, want 8x8", h.W, h.H)
	}
	ReleaseFrame(h)
	ReleaseFrame(nil) // no-op
}

func TestSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	// Warm the pools.
	PutBytes(Bytes(4096))
	ReleaseFrame(AcquireFrameUncleared(32, 32))

	if n := testing.AllocsPerRun(100, func() {
		b := Bytes(4096)
		PutBytes(b)
	}); n != 0 {
		t.Errorf("Bytes/PutBytes steady state: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		f := AcquireFrameUncleared(32, 32)
		ReleaseFrame(f)
	}); n != 0 {
		t.Errorf("AcquireFrameUncleared steady state: %v allocs/op, want 0", n)
	}
}
