package raster

import (
	"sync"

	"github.com/ascr-ecx/eth/internal/par"
)

// parallelBinMin is the primitive count below which binning stays serial:
// under it the per-goroutine fan-out costs more than the scan it splits.
const parallelBinMin = 1 << 13

// drawWorkers returns the workers a draw into a frame of h rows runs on:
// workers, or the default pool size when it is <= 0, and no more than the
// frame has bands.
func drawWorkers(workers, h int) int {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	return min(workers, (h+DefaultBandHeight-1)/DefaultBandHeight)
}

// bandRows returns the rows [y0, y1) of the bands a primitive spanning
// [lo, hi] vertically is binned to — from the band holding row int(lo)
// through the one holding int(hi), clamped to the frame's h rows — and
// false when it lies wholly above or below the frame.
func bandRows(h int, lo, hi float64) (y0, y1 int, ok bool) {
	if hi < 0 || lo >= float64(h) {
		return 0, 0, false
	}
	const bandHeight = DefaultBandHeight
	last := (h+bandHeight-1)/bandHeight - 1
	b0 := clampInt(int(lo)/bandHeight, 0, last)
	b1 := clampInt(int(hi)/bandHeight, 0, last)
	return b0 * bandHeight, min((b1+1)*bandHeight, h), true
}

// drawBinned draws n primitives into a frame of h rows on wk workers, the
// one parallel path every primitive kind shares. rows(i) is bandRows for
// primitive i; draw(i, y0, y1) draws it restricted to rows [y0, y1).
//
// Each primitive is binned to the bands of its rows, and each band
// is drawn by one worker. Bands never share pixels, so the inner loops
// need no locks. At parallelBinMin primitives or more each worker bins a
// contiguous index chunk into private per-band lists, and each band
// drains its workers in chunk order, so the per-band draw order is the
// input order, as a one-worker draw's is.
func drawBinned(h, n, wk int, rows func(i int) (y0, y1 int, ok bool), draw func(i, y0, y1 int)) {
	const bandHeight = DefaultBandHeight
	bands := (h + bandHeight - 1) / bandHeight
	if bands == 0 {
		return
	}
	binW := wk
	if n < parallelBinMin {
		binW = 1
	}
	s := getBins(binW * bands)
	par.For(binW, binW, func(w int) {
		row := s.bins[w*bands : (w+1)*bands]
		for i := w * n / binW; i < (w+1)*n/binW; i++ {
			y0, y1, ok := rows(i)
			if !ok {
				continue
			}
			for b := y0 / bandHeight; b <= (y1-1)/bandHeight; b++ {
				row[b] = append(row[b], int32(i))
			}
		}
	})
	par.For(bands, wk, func(b int) {
		y0 := b * bandHeight
		y1 := min(y0+bandHeight, h)
		for w := 0; w < binW; w++ {
			for _, i := range s.bins[w*bands+b] {
				draw(int(i), y0, y1)
			}
		}
	})
	putBins(s)
}

// binScratch is the reusable per-frame binning state. bins is a flattened
// [worker][band] table (index w*bands+b); each inner slice keeps its
// capacity across frames, so a steady sequence of similar frames bins
// with zero allocation. Primitives are binned by contiguous index chunk
// per worker, and each band drains its workers in order, so the rasterize
// order per band is identical to a single serial binning pass regardless
// of worker count.
type binScratch struct {
	bins [][]int32
}

var binPool sync.Pool

// getBins returns a scratch with n empty bin lists, reusing both the
// outer table and the inner lists' capacity from previous frames.
func getBins(n int) *binScratch {
	s, _ := binPool.Get().(*binScratch)
	if s == nil {
		s = &binScratch{}
	}
	if cap(s.bins) < n {
		s.bins = append(s.bins[:cap(s.bins)], make([][]int32, n-cap(s.bins))...)
	}
	s.bins = s.bins[:n]
	for i := range s.bins {
		s.bins[i] = s.bins[i][:0]
	}
	return s
}

// putBins returns the scratch for reuse by a later frame.
func putBins(s *binScratch) { binPool.Put(s) }
