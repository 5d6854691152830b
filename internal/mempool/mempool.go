// Package mempool is a process-wide frame pool, kept only where no owner
// exists yet. The paper's thesis is that in-situ cost is dominated by
// per-step data movement and per-frame rendering; for the harness itself
// to stay out of its own measurements (SIM-SITU's faithfulness
// requirement) the per-step path must not churn the garbage collector.
// The hot layers meet that by owning their memory — the hub its slots,
// each simulation proxy its sample, each renderer its scratch — because
// what a pool hands back depends on when the collector last ran. What is
// left here serves compositing's frames: the product composites once per
// run, and per-step compositing happens in bench/.
//
// AcquireFrameUncleared / ReleaseFrame pool fb.Frame instances keyed by
// dimensions. A frame obtained from the pool is owned exclusively by the
// caller until it is released, at which point the caller must not touch
// it again. Releasing is always optional — dropping a frame on the floor
// is merely a missed reuse, never a leak or a correctness bug — so APIs
// that hand pooled frames to their callers remain safe for callers that
// do not know about the pool.
package mempool

import (
	"sync"

	"github.com/ascr-ecx/eth/internal/fb"
)

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
// package doc).
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
