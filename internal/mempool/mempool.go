// Package mempool is ETH's buffer-reuse substrate. The paper's thesis is
// that in-situ cost is dominated by per-step data movement and per-frame
// rendering; for the harness itself to stay out of its own measurements
// (SIM-SITU's faithfulness requirement) the per-step/per-frame path must
// not churn the garbage collector. mempool provides the three reuse
// primitives the hot layers share:
//
//   - Bytes / PutBytes: a byte-buffer pool with power-of-two capacity
//     classes, for wire payloads and codec scratch.
//   - SlicePool[T]: the same capacity-class scheme for typed slices
//     (per-particle colors, primitive lists).
//   - AcquireFrameUncleared / ReleaseFrame: pooled fb.Frame instances
//     keyed by dimensions, for compositing intermediates and per-image
//     scratch.
//
// Ownership convention (documented once here, relied on everywhere): a
// value obtained from a pool is owned exclusively by the caller until it
// is Put/Released back, at which point the caller must not touch it
// again. Returning a buffer to the pool is always optional — dropping it
// on the floor is merely a missed reuse, never a leak or a correctness
// bug — so APIs that hand pooled memory to their callers remain safe for
// callers that do not know about the pool.
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

// ---- typed slices ----

// SlicePool pools []T by capacity class. The zero value is ready to use;
// a SlicePool is safe for concurrent use.
type SlicePool[T any] struct {
	pools   [maxClass + 1]sync.Pool
	headers sync.Pool // empty *[]T shells, recycled between Put and Get
}

// Get returns a slice with len n and unspecified contents.
func (sp *SlicePool[T]) Get(n int) []T {
	c := classFor(n)
	if c > maxClass {
		return make([]T, n)
	}
	if p, _ := sp.pools[c].Get().(*[]T); p != nil {
		s := *p
		*p = nil
		sp.headers.Put(p)
		return s[:n]
	}
	return make([]T, n, 1<<c)
}

// Put returns s's backing array to the pool. Put is optional; s must not
// be used after. Slices holding pointers are not zeroed on Put — the pool
// may briefly pin what they reference until reuse overwrites it, which is
// the deliberate trade for a zero-cost Put on the hot path.
func (sp *SlicePool[T]) Put(s []T) {
	c := putClassFor(cap(s))
	if c < 0 {
		return
	}
	p, _ := sp.headers.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	*p = s[:0:cap(s)]
	sp.pools[c].Put(p)
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
