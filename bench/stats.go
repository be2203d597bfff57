package main

import (
	"math"
	"sort"
)

// stats.go — the order statistics every metric is built from. Timings are
// reported as a median plus a tail percentile, never as a mean: one GC
// pause or scheduler hiccup on the 2-vCPU box moves a mean by percent and
// a median not at all.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the rule
// the acceptance check of this benchmark is stated in. Fewer than two
// samples yield the sample itself (or NaN when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run steadiness figure bounds are compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// samplesBeyond counts the samples strictly above the p-th percentile.
func samplesBeyond(xs []float64, p float64) int {
	v := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// tailPercentile returns the highest of the candidate percentiles
// 99, 95, 90, 75 that still has at least minBeyond samples beyond it, with
// the percentile chosen — the "highest percentile with ten samples beyond"
// rule. With too few samples for any candidate it falls back to the median
// (p = 50) so that the caller reports something and states the count.
func tailPercentile(xs []float64, minBeyond int) (p, value float64) {
	for _, c := range []float64{99, 95, 90, 75} {
		if samplesBeyond(xs, c) >= minBeyond {
			return c, percentile(xs, c)
		}
	}
	return 50, median(xs)
}

// segmentRates splits a run of per-operation durations (seconds) into
// nseg consecutive segments of equal operation count and returns each
// segment's rate in work units per second, where every operation does
// workPerOp units. Operations that do not fill the last segment are
// dropped. With fewer operations than segments every operation is its own
// segment.
func segmentRates(durs []float64, workPerOp float64, nseg int) []float64 {
	if len(durs) == 0 || nseg < 1 {
		return nil
	}
	if len(durs) < nseg {
		nseg = len(durs)
	}
	per := len(durs) / nseg
	rates := make([]float64, 0, nseg)
	for s := 0; s < nseg; s++ {
		t := 0.0
		for _, d := range durs[s*per : (s+1)*per] {
			t += d
		}
		if t > 0 {
			rates = append(rates, workPerOp*float64(per)/t)
		}
	}
	return rates
}
