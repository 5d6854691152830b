package data

import (
	"math"
	"testing"
)

// TestRangeSkipsNaN: a NaN is skipped wherever it lies — first included,
// where seeding the range with element 0 made the whole range NaN — and
// a field of nothing but NaN has the empty range, as an empty one does.
// Field.MinMax is the same loop.
func TestRangeSkipsNaN(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		name   string
		vals   []float32
		lo, hi float32
	}{
		{"empty", nil, 0, 0},
		{"no NaN", []float32{3, -1, 2}, -1, 3},
		{"NaN first", []float32{nan, 3, -1, 2}, -1, 3},
		{"NaN middle", []float32{3, nan, -1, 2}, -1, 3},
		{"NaN last", []float32{3, -1, 2, nan}, -1, 3},
		{"NaNs first and last", []float32{nan, 2, nan}, 2, 2},
		{"all NaN", []float32{nan, nan, nan}, 0, 0},
		{"infinities kept", []float32{nan, -inf, 0, inf}, -inf, inf},
	} {
		lo, hi := Range(c.vals)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s: Range = %v, %v, want %v, %v", c.name, lo, hi, c.lo, c.hi)
		}
		f := Field{Name: c.name, Values: c.vals}
		if flo, fhi := f.MinMax(); flo != lo || fhi != hi {
			t.Errorf("%s: MinMax = %v, %v, Range %v, %v", c.name, flo, fhi, lo, hi)
		}
	}
}
