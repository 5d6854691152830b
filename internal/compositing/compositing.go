// Package compositing merges the partial images rendered by parallel
// ranks into one final frame. In a distributed in-situ run every rank
// renders only its spatial piece of the data; depth compositing keeps the
// nearest fragment per pixel. Two classic algorithms are provided —
// direct send and binary swap — because their communication patterns
// differ (O(P) messages of full frames vs log2(P) rounds of half frames)
// and the cluster model charges them differently; DESIGN.md lists the
// choice as an ablation.
package compositing

import (
	"fmt"
	"math"
	"time"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/mempool"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Compositing telemetry: per-composite latency histograms plus modeled
// communication counters, so every multi-rank run reports merge cost.
var (
	ctrCompBytes   = telemetry.Default.Counter("compositing.bytes")
	ctrCompMsgs    = telemetry.Default.Counter("compositing.messages")
	histBinarySwap = telemetry.Default.Histogram("compositing.binary_swap")
	histDirectSend = telemetry.Default.Histogram("compositing.direct_send")
)

// Algorithm selects the compositing schedule.
type Algorithm uint8

const (
	// DirectSend gathers every rank's full frame at the root and merges
	// sequentially — one round, P-1 full-frame messages.
	DirectSend Algorithm = iota
	// BinarySwap pairs ranks over log2(P) rounds, each exchanging half of
	// its current region — the classic scalable schedule. For non-power-
	// of-two P the remainder frames are folded in with direct sends first.
	BinarySwap
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a == BinarySwap {
		return "binary-swap"
	}
	return "direct-send"
}

// Stats describes the communication a composite performed, consumed by
// the cluster model to charge link time.
type Stats struct {
	Rounds        int   // communication rounds
	BytesMoved    int64 // total payload bytes exchanged
	MessagesMoved int   // total messages
}

// bytesPerPixel is the wire size of one composited pixel: RGB (3x8) +
// depth (8).
const bytesPerPixel = 32

// MergeInto merges src into dst pixel-by-pixel, keeping the nearer
// fragment. Frames must be the same size.
func MergeInto(dst, src *fb.Frame) error {
	if dst.W != src.W || dst.H != src.H {
		return fmt.Errorf("compositing: frame sizes differ (%dx%d vs %dx%d)", dst.W, dst.H, src.W, src.H)
	}
	n := len(dst.Depth)
	if n <= 4096 {
		// Single-grain frames merge inline: constructing the par closure
		// would heap-allocate it, and this path must stay allocation-free
		// at steady state.
		mergeRange(dst, src, 0, n)
		return nil
	}
	par.ForGrained(n, 0, 4096, func(lo, hi int) {
		mergeRange(dst, src, lo, hi)
	})
	return nil
}

// Composite merges the per-rank frames into a single frame using the
// given algorithm and returns it with the communication stats the
// schedule would have incurred on a real interconnect. The input frames
// are not modified. An empty input returns an error.
func Composite(frames []*fb.Frame, alg Algorithm) (*fb.Frame, Stats, error) {
	if len(frames) == 0 {
		return nil, Stats{}, fmt.Errorf("compositing: no frames")
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			return nil, Stats{}, fmt.Errorf("compositing: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h)
		}
	}
	t0 := time.Now()
	var (
		out   *fb.Frame
		stats Stats
		err   error
	)
	switch alg {
	case BinarySwap:
		out, stats, err = binarySwap(frames)
	default:
		out, stats, err = directSend(frames)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	if alg == BinarySwap {
		histBinarySwap.Since(t0)
	} else {
		histDirectSend.Since(t0)
	}
	ctrCompBytes.Add(stats.BytesMoved)
	ctrCompMsgs.Add(int64(stats.MessagesMoved))
	return out, stats, err
}

func directSend(frames []*fb.Frame) (*fb.Frame, Stats, error) {
	w, h := frames[0].W, frames[0].H
	// Seed by straight copy from the first input: a MergeInto onto a
	// freshly cleared frame walks every pixel through a depth compare only
	// to arrive at the same bytes. The frame comes from the pool (callers
	// may ReleaseFrame the composite when done; dropping it is fine too).
	out := mempool.AcquireFrameUncleared(w, h)
	if err := out.CopyFrom(frames[0]); err != nil {
		mempool.ReleaseFrame(out)
		return nil, Stats{}, err
	}
	for _, f := range frames[1:] {
		if err := MergeInto(out, f); err != nil {
			mempool.ReleaseFrame(out)
			return nil, Stats{}, err
		}
	}
	stats := Stats{
		Rounds:        1,
		BytesMoved:    int64(len(frames)-1) * int64(w*h) * bytesPerPixel,
		MessagesMoved: len(frames) - 1,
	}
	return out, stats, nil
}

// binarySwap simulates the binary-swap schedule: over log2(P) rounds each
// rank keeps half its active region and sends the other half to its
// partner; afterwards each rank owns the fully composited 1/P of the
// image, gathered at the end. We execute the merges locally but account
// messages/bytes exactly as the schedule would.
func binarySwap(frames []*fb.Frame) (*fb.Frame, Stats, error) {
	p := len(frames)
	w, h := frames[0].W, frames[0].H
	pixels := w * h

	// Fold non-power-of-two remainder into the main group first.
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	stats := Stats{}
	work := make([]*fb.Frame, pow)
	for i := 0; i < pow; i++ {
		// Working copies (inputs are preserved) come from the frame pool
		// and are seeded by straight copy — the previous MergeInto onto a
		// cleared frame depth-compared every pixel to produce an identical
		// result. Released back to the pool before returning.
		cp := mempool.AcquireFrameUncleared(w, h)
		if err := cp.CopyFrom(frames[i]); err != nil {
			mempool.ReleaseFrame(cp)
			releaseFrames(work[:i])
			return nil, Stats{}, err
		}
		work[i] = cp
	}
	for i := pow; i < p; i++ {
		if err := MergeInto(work[i-pow], frames[i]); err != nil {
			releaseFrames(work)
			return nil, Stats{}, err
		}
		stats.BytesMoved += int64(pixels) * bytesPerPixel
		stats.MessagesMoved++
		stats.Rounds = 1
	}

	// log2(pow) swap rounds. Regions are tracked as [lo, hi) pixel ranges.
	type region struct{ lo, hi int }
	regions := make([]region, pow)
	for i := range regions {
		regions[i] = region{0, pixels}
	}
	for span := pow; span > 1; span /= 2 {
		stats.Rounds++
		half := span / 2
		for base := 0; base < pow; base += span {
			for k := 0; k < half; k++ {
				a := base + k
				b := base + k + half
				// a keeps the low half of its region, b the high half;
				// each sends the other half to its partner.
				ra := regions[a]
				mid := (ra.lo + ra.hi) / 2
				mergeRange(work[a], work[b], ra.lo, mid)
				mergeRange(work[b], work[a], mid, ra.hi)
				sent := int64(ra.hi-ra.lo) * bytesPerPixel
				stats.BytesMoved += sent // each pair exchanges region halves (half each way)
				stats.MessagesMoved += 2
				regions[a] = region{ra.lo, mid}
				regions[b] = region{mid, ra.hi}
			}
		}
	}

	// Final gather: every rank sends its owned region to the root. The
	// regions tile [0, pixels) exactly, so an uncleared pooled frame is
	// fully overwritten.
	out := mempool.AcquireFrameUncleared(w, h)
	for i := 0; i < pow; i++ {
		r := regions[i]
		copy(out.Color[r.lo:r.hi], work[i].Color[r.lo:r.hi])
		copy(out.Depth[r.lo:r.hi], work[i].Depth[r.lo:r.hi])
		if i != 0 {
			stats.BytesMoved += int64(r.hi-r.lo) * bytesPerPixel
			stats.MessagesMoved++
		}
	}
	releaseFrames(work)
	stats.Rounds++
	return out, stats, nil
}

// releaseFrames returns every frame in fs to the pool.
func releaseFrames(fs []*fb.Frame) {
	for _, f := range fs {
		mempool.ReleaseFrame(f)
	}
}

// mergeRange merges src pixels [lo, hi) into dst.
func mergeRange(dst, src *fb.Frame, lo, hi int) {
	for i := lo; i < hi; i++ {
		if src.Depth[i] < dst.Depth[i] {
			dst.Depth[i] = src.Depth[i]
			dst.Color[i] = src.Color[i]
		}
	}
}

// ModelCost returns the modeled communication time in seconds for
// compositing an image of the given pixel count across ranks over a link
// with the given bandwidth (bytes/s) and per-message latency (s). Used by
// the cluster model; kept here so the formula sits beside the algorithms
// it describes.
func ModelCost(alg Algorithm, ranks, pixels int, bandwidth float64, latency float64) float64 {
	if ranks <= 1 {
		return 0
	}
	frameBytes := float64(pixels) * bytesPerPixel
	switch alg {
	case BinarySwap:
		rounds := math.Ceil(math.Log2(float64(ranks)))
		// Each round exchanges half the current region, halving each time:
		// total bytes ~ frameBytes * (1 - 1/P), in log2(P) latency rounds.
		return rounds*latency + frameBytes*(1-1/float64(ranks))/bandwidth
	default:
		// Root receives P-1 full frames serially.
		return float64(ranks-1)*latency + float64(ranks-1)*frameBytes/bandwidth
	}
}
