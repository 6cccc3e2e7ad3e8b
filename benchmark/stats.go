package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of ascending s by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func p90(xs []float64) float64 { return quantile(sorted(xs), 0.9) }

// lowQ and highQ summarise a run's per-segment values by their favourable
// quartile — the lower one for times, the upper one for rates. On a
// shared host the noise is one-sided: a neighbour, a journal checkpoint or
// writeback only ever slows a segment down, for seconds at a time, so the
// median over segments still moves with the weather while the favourable
// quartile estimates the undisturbed system and tolerates a run of which
// two thirds were disturbed.
func lowQ(xs []float64) float64  { return quantile(sorted(xs), 0.25) }
func highQ(xs []float64) float64 { return quantile(sorted(xs), 0.75) }

// tailOdds are the percentiles the client.* tail metrics may report, as
// "one in k beyond": p99.99, p99.9, p99, p90, p50 — highest first.
var tailOdds = []int{10_000, 1000, 100, 10, 2}

// supportedTail returns the highest percentile (as a 0..1 level) that
// still has at least ten samples beyond it in a sample of size n — the
// highest percentile the sample can speak for. ok is false below 20
// samples, where not even the median qualifies.
func supportedTail(n int) (level float64, ok bool) {
	for _, k := range tailOdds {
		if n >= 10*k {
			return 1 - 1/float64(k), true
		}
	}
	return 0, false
}

// tailAt returns the percentile with one sample in k beyond it (k = 100
// is p99), or 0 when fewer than ten samples lie beyond: a percentile the
// sample cannot support reads 0, never a guess.
func tailAt(xs []float64, k int) float64 {
	if len(xs) < 10*k {
		return 0
	}
	return quantile(sorted(xs), 1-1/float64(k))
}

// medianPairRatio is the median over i of num[i]/den[i]: the statistic
// behind mca_native_ratio, robust against one slow block on either side.
func medianPairRatio(num, den []float64) float64 {
	n := min(len(num), len(den))
	rs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] > 0 {
			rs = append(rs, num[i]/den[i])
		}
	}
	return median(rs)
}

// relGap is |a-b| over their mean: the run-to-run gap -selfcheck holds
// against each metric's bound.
func relGap(a, b float64) float64 {
	m := (a + b) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
