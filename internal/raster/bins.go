package raster

import "github.com/ascr-ecx/eth/internal/par"

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
// false when it lies wholly above or below the frame, or when its first
// band comes after its last. That happens when int(hi) is out of
// int's range (a huge or NaN hi converts to the most negative int): the
// binned draw bins such a primitive nowhere, so the one-worker draw must
// not clamp its empty row range onto the frame.
func bandRows(h int, lo, hi float64) (y0, y1 int, ok bool) {
	if hi < 0 || lo >= float64(h) {
		return 0, 0, false
	}
	const bandHeight = DefaultBandHeight
	last := (h+bandHeight-1)/bandHeight - 1
	b0 := clampInt(int(lo)/bandHeight, 0, last)
	b1 := clampInt(int(hi)/bandHeight, 0, last)
	if b0 > b1 {
		return 0, 0, false
	}
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
// input order, as a one-worker draw's is. The bin lists are b's, or
// fresh ones when b is nil.
func drawBinned(b *Bins, h, n, wk int, rows func(i int) (y0, y1 int, ok bool), draw func(i, y0, y1 int)) {
	const bandHeight = DefaultBandHeight
	bands := (h + bandHeight - 1) / bandHeight
	if bands == 0 {
		return
	}
	binW := wk
	if n < parallelBinMin {
		binW = 1
	}
	if b == nil {
		b = new(Bins)
	}
	b.reset(binW * bands)
	par.For(binW, binW, func(w int) {
		row := b.bins[w*bands : (w+1)*bands]
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
	par.For(bands, wk, func(band int) {
		y0 := band * bandHeight
		y1 := min(y0+bandHeight, h)
		for w := 0; w < binW; w++ {
			for _, i := range b.bins[w*bands+band] {
				draw(int(i), y0, y1)
			}
		}
	})
}

// Bins is a drawer's binning memory, kept from frame to frame: a
// flattened [worker][band] table of primitive indices (index w*bands+b)
// whose lists keep their capacity, so a steady sequence of similar frames
// bins with zero allocation. Primitives are binned by contiguous index
// chunk per worker, and each band drains its workers in order, so the
// rasterize order per band is identical to a single serial binning pass
// regardless of worker count. A renderer that draws every step owns one;
// the package-level DrawSprites bins into fresh lists instead. The zero
// value is ready to use; a Bins is not safe for concurrent use.
type Bins struct {
	bins [][]int32
}

// reset empties b to n bin lists, reusing both the outer table and the
// inner lists' capacity from previous frames.
func (b *Bins) reset(n int) {
	if cap(b.bins) < n {
		b.bins = append(b.bins[:cap(b.bins)], make([][]int32, n-cap(b.bins))...)
	}
	b.bins = b.bins[:n]
	for i := range b.bins {
		b.bins[i] = b.bins[i][:0]
	}
}
