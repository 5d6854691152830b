package main

import (
	"sort"
	"time"
)

// percentile returns the q-th percentile (0..100) of vals by linear
// interpolation between closest ranks. It returns 0 for an empty input.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// pingpong maps a step to its epoch so that consecutive steps are always
// neighbouring epochs: 0,1,…,E−1,E−2,…,1,0,1,…
func pingpong(step, epochs int) int {
	if epochs <= 1 {
		return 0
	}
	period := 2*epochs - 2
	k := step % period
	if k < epochs {
		return k
	}
	return period - k
}

// span is one traced interval. parent is an index into the same slice,
// or -1 for a top-level span.
type span struct {
	name       string
	start, end time.Time
	parent     int
	rank, step int
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is span i's duration minus the part of it its direct children
// cover. Overlapping children are counted once; a child is clipped to
// its parent.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ lo, hi time.Time }
	var kids []iv
	for _, c := range spans {
		if c.parent != i {
			continue
		}
		lo, hi := c.start, c.end
		if lo.Before(p.start) {
			lo = p.start
		}
		if hi.After(p.end) {
			hi = p.end
		}
		if hi.After(lo) {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo.Before(kids[b].lo) })
	var covered time.Duration
	var edge time.Time
	for _, k := range kids {
		if k.lo.Before(edge) {
			k.lo = edge
		}
		if k.hi.After(k.lo) {
			covered += k.hi.Sub(k.lo)
			edge = k.hi
		}
	}
	return p.dur() - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
