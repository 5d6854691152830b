// Package compositing merges the partial images rendered by parallel
// ranks into one final frame. In a distributed in-situ run every rank
// renders only its spatial piece of the data; depth compositing keeps the
// nearest fragment per pixel. Two classic algorithms are provided —
// direct send and binary swap — because their communication patterns
// differ (O(P) messages of full frames vs log2(P) rounds of half frames)
// and the cluster model charges them differently; DESIGN.md lists the
// choice as an ablation.
//
// As on a cluster, where each rank merges into its own image buffer, the
// schedules run in the ranks' frames: no frame is allocated, and the only
// copy is binary swap's final gather of each rank's region into the
// root's frame. Direct send writes only frames[0]; binary swap writes
// every input.
package compositing

import (
	"fmt"
	"math"
	"time"

	"github.com/ascr-ecx/eth/internal/fb"
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

// mergeInto merges src into dst pixel-by-pixel, keeping the nearer
// fragment. Frames must be the same size.
func mergeInto(dst, src *fb.Frame) {
	n := len(dst.Depth)
	if n <= 4096 {
		// Single-grain frames merge inline: constructing the par closure
		// would heap-allocate it, and this path must stay allocation-free
		// at steady state.
		mergeRange(dst, src, 0, n)
		return
	}
	par.ForGrained(n, 0, 4096, func(lo, hi int) {
		mergeRange(dst, src, lo, hi)
	})
}

// Composite merges the per-rank frames into frames[0] using the given
// algorithm and returns frames[0] with the communication stats the
// schedule would have incurred on a real interconnect. The merge runs in
// the ranks' own buffers: direct send writes only frames[0], binary swap
// writes every input. A caller that must keep the per-rank images passes
// a copy of the root's frame as frames[0]. Compositing already merged
// frames again gives the same pixels. An empty input or frames of
// different sizes return an error and leave every frame untouched.
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
	var stats Stats
	if alg == BinarySwap {
		stats = binarySwap(frames)
		histBinarySwap.Since(t0)
	} else {
		stats = directSend(frames)
		histDirectSend.Since(t0)
	}
	ctrCompBytes.Add(stats.BytesMoved)
	ctrCompMsgs.Add(int64(stats.MessagesMoved))
	return frames[0], stats, nil
}

// directSend merges frames[1:] into frames[0] in order.
func directSend(frames []*fb.Frame) Stats {
	for _, f := range frames[1:] {
		mergeInto(frames[0], f)
	}
	return Stats{
		Rounds:        1,
		BytesMoved:    int64(len(frames)-1) * int64(len(frames[0].Depth)) * bytesPerPixel,
		MessagesMoved: len(frames) - 1,
	}
}

// binarySwap runs the binary-swap schedule in the input frames: over
// log2(P) rounds each rank keeps half its active region, merging in its
// partner's copy of that half, so afterwards each rank owns the fully
// composited 1/P of the image; the owned regions are then gathered into
// frames[0]. Messages and bytes are accounted exactly as the schedule
// would send them.
func binarySwap(frames []*fb.Frame) Stats {
	p := len(frames)
	pixels := len(frames[0].Depth)

	// Fold non-power-of-two remainder into the main group first.
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	var stats Stats
	for i := pow; i < p; i++ {
		mergeInto(frames[i-pow], frames[i])
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
				mergeRange(frames[a], frames[b], ra.lo, mid)
				mergeRange(frames[b], frames[a], mid, ra.hi)
				sent := int64(ra.hi-ra.lo) * bytesPerPixel
				stats.BytesMoved += sent // each pair exchanges region halves (half each way)
				stats.MessagesMoved += 2
				regions[a] = region{ra.lo, mid}
				regions[b] = region{mid, ra.hi}
			}
		}
	}

	// Final gather: every other rank sends its owned region to the root,
	// which already owns region 0. The regions tile [0, pixels).
	out := frames[0]
	for i := 1; i < pow; i++ {
		r := regions[i]
		copy(out.Color[r.lo:r.hi], frames[i].Color[r.lo:r.hi])
		copy(out.Depth[r.lo:r.hi], frames[i].Depth[r.lo:r.hi])
		stats.BytesMoved += int64(r.hi-r.lo) * bytesPerPixel
		stats.MessagesMoved++
	}
	stats.Rounds++
	return stats
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
