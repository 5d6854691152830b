// Package mempool is what is left of a process-wide frame pool: a no-op
// ReleaseFrame, kept so that bench/ethperf, which releases each
// composite it publishes, builds unchanged. Nothing under internal/ or
// cmd/ pools memory any more. Each layer owns its buffers — the hub its
// slots, each simulation proxy its sample, each renderer its scratch, and
// compositing merges in the ranks' own frames — because what a pool hands
// back depends on when the collector last ran, and the harness must stay
// out of its own measurements.
package mempool

import "github.com/ascr-ecx/eth/internal/fb"

// ReleaseFrame does nothing: no frame comes from a pool any more, so
// there is nothing to give back. f stays valid.
func ReleaseFrame(f *fb.Frame) {}
