package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) values by
// linear interpolation between order statistics; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	if math.IsInf(sorted[hi], 1) {
		if frac == 0 {
			return sorted[lo]
		}
		return math.Inf(1)
	}
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// tailQuantile is the highest quantile (capped at p99) that still has
// at least ten of n samples strictly beyond it, so a reported tail is
// never set by a handful of outliers. Below 20 samples no tail beyond
// the median qualifies and the median is returned.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	q := float64(n-10) / float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// median of unsorted values (copied, not reordered in place).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// interval is a half-open [start, end) span in nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total length covered by the intervals, counting
// overlapping stretches once.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// clip restricts ivs to parent, dropping the parts outside it.
func clip(parent interval, ivs []interval) []interval {
	out := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < parent.start {
			iv.start = parent.start
		}
		if iv.end > parent.end {
			iv.end = parent.end
		}
		if iv.end > iv.start {
			out = append(out, iv)
		}
	}
	return out
}

// selfTime is the part of parent that none of children covers: the
// parent's length minus the union of the children clipped to it.
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - unionLength(clip(parent, children))
}
