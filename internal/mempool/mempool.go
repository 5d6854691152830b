// Package mempool is a process-wide buffer pool, kept only where no
// owner exists yet. The paper's thesis is that in-situ cost is dominated
// by per-step data movement and per-frame rendering; for the harness
// itself to stay out of its own measurements (SIM-SITU's faithfulness
// requirement) the per-step path must not churn the garbage collector.
// The hot layers now meet that by owning their memory — the hub its
// slots, each simulation proxy its sample, each renderer its scratch —
// because what a pool hands back depends on when the collector last ran.
// What is left here serves compositing's frames (the product composites
// once per run; per-step compositing happens in bench/), hub.FrameSig's
// chunk buffer (a signature viewers and the benchmark compute, not the
// product path), and bench/ itself:
//
//   - Bytes / PutBytes: a byte-buffer pool with power-of-two capacity
//     classes.
//   - AcquireFrameUncleared / ReleaseFrame: pooled fb.Frame instances
//     keyed by dimensions, for compositing intermediates.
//
// Ownership convention: a value obtained from a pool is owned exclusively
// by the caller until it is Put/Released back, at which point the caller
// must not touch it again. Returning a buffer to the pool is always
// optional — dropping it on the floor is merely a missed reuse, never a
// leak or a correctness bug — so APIs that hand pooled memory to their
// callers remain safe for callers that do not know about the pool.
package mempool

import (
	"math/bits"
	"sync"

	"github.com/ascr-ecx/eth/internal/fb"
)

// maxClass is the largest pooled capacity class: 1<<maxClass elements.
// Requests above it are allocated directly and never pooled, so a single
// gigantic step cannot pin memory for the rest of the run.
const maxClass = 26 // 64 Mi elements

// classFor returns the capacity-class index for a request of n elements:
// the smallest power-of-two exponent c with 1<<c >= n. Requests larger
// than the largest class return maxClass+1 (unpooled).
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return maxClass + 1
	}
	return c
}

// ---- byte buffers ----

// bytePools holds one sync.Pool per capacity class. Entries store *[]byte
// headers whose empty shells recirculate through byteHeaders, so neither
// Get nor Put allocates at steady state (a plain Put(&b) would heap-box a
// fresh slice header every call).
var (
	bytePools   [maxClass + 1]sync.Pool
	byteHeaders sync.Pool
)

// Bytes returns a byte slice with len n. Its contents are unspecified —
// callers that need zeros must clear it. Capacity comes from the pool's
// size class, so a steady sequence of equal-sized requests allocates only
// once.
func Bytes(n int) []byte {
	c := classFor(n)
	if c > maxClass {
		return make([]byte, n)
	}
	if p, _ := bytePools[c].Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		byteHeaders.Put(p)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBytes returns b's backing array to the pool. Put is optional; b must
// not be used after.
func PutBytes(b []byte) {
	c := putClassFor(cap(b))
	if c < 0 {
		return
	}
	p, _ := byteHeaders.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0:cap(b)]
	bytePools[c].Put(p)
}

// putClassFor maps a capacity back to the class whose requests it can
// serve: the largest class c with 1<<c <= cap. Undersized (0) or
// oversized capacities are not pooled (-1).
func putClassFor(capacity int) int {
	if capacity < 1 {
		return -1
	}
	c := bits.Len(uint(capacity)) - 1
	if c > maxClass {
		return -1
	}
	return c
}

// ---- framebuffers ----

// framePool pools frames of one size.
type framePool struct{ p sync.Pool }

// framePools maps [2]int{w, h} -> *framePool.
var framePools sync.Map

func poolFor(w, h int) *framePool {
	key := [2]int{w, h}
	if p, ok := framePools.Load(key); ok {
		return p.(*framePool)
	}
	p, _ := framePools.LoadOrStore(key, &framePool{})
	return p.(*framePool)
}

// AcquireFrameUncleared returns a w x h frame from the pool, allocating
// only when the pool is empty, for callers that overwrite every pixel
// (e.g. a full-frame copy target): pixel contents are unspecified.
// Release it with ReleaseFrame when done; releasing is optional (see the
// package ownership convention).
func AcquireFrameUncleared(w, h int) *fb.Frame {
	fp := poolFor(w, h)
	if f, _ := fp.p.Get().(*fb.Frame); f != nil {
		return f
	}
	return fb.New(w, h)
}

// ReleaseFrame returns f to the pool for its dimensions. f must not be
// used after. Nil is ignored.
func ReleaseFrame(f *fb.Frame) {
	if f == nil {
		return
	}
	poolFor(f.W, f.H).p.Put(f)
}
