package main

import (
	"math"
	"sort"
)

// geomean returns the geometric mean of xs, which must all be positive,
// or 0 when xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs, or 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank position of the p-th percentile among
// n sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 when xs
// is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile, at most limit,
// that leaves at least minBeyond of n samples above it, and the median
// when none does.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// interval is the time range [start, end), in milliseconds.
type interval struct{ start, end float64 }

// selfTime returns how much of parent no child covers. Children may nest
// inside one another, overlap (work done on another goroutine) or stick
// out of the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) float64 {
	var cs []interval
	for _, c := range children {
		c.start = math.Max(c.start, parent.start)
		c.end = math.Min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := 0.0
	for i := 0; i < len(cs); {
		cur := cs[i]
		for i++; i < len(cs) && cs[i].start <= cur.end; i++ {
			cur.end = math.Max(cur.end, cs[i].end)
		}
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// tally counts operations attempted and failed.
type tally struct{ attempted, failed int }

// count records one attempted operation, failed when err is set, and
// reports whether it succeeded.
func (t *tally) count(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
	}
	return err == nil
}

// failFrac is the share of attempted operations that failed.
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
