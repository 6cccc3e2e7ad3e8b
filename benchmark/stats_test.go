package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the helpers must sort
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndP90(t *testing.T) {
	for _, tc := range []struct {
		name        string
		xs          []float64
		median, p90 float64
	}{
		{"empty", nil, 0, 0},
		{"one", []float64{7}, 7, 7},
		{"two", []float64{4, 2}, 3, 3.8},
		{"odd", []float64{5, 1, 3}, 3, 4.6},
		{"1..10", seq(10), 5.5, 9.1},
		{"1..101", seq(101), 51, 91},
		{"outlier", []float64{1, 1, 1, 1, 1000}, 1, 600.4},
	} {
		if got := median(tc.xs); !near(got, tc.median) {
			t.Errorf("%s: median = %v, want %v", tc.name, got, tc.median)
		}
		if got := p90(tc.xs); !near(got, tc.p90) {
			t.Errorf("%s: p90 = %v, want %v", tc.name, got, tc.p90)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
		ok    bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10_000, 0.999, true},
		{100_000, 0.9999, true},
		{5_000_000, 0.9999, true},
	} {
		level, ok := supportedTail(tc.n)
		if ok != tc.ok || !near(level, tc.level) {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", tc.n, level, ok, tc.level, tc.ok)
		}
	}
}

func TestTailAt(t *testing.T) {
	// 999 samples leave 9.99 beyond p99: one short of speaking for it.
	if got := tailAt(seq(999), 100); got != 0 {
		t.Errorf("tailAt(999 samples, p99) = %v, want 0 (unsupported)", got)
	}
	if got := tailAt(seq(1001), 100); !near(got, 991) {
		t.Errorf("tailAt(1001 samples, p99) = %v, want 991", got)
	}
	if got := tailAt(seq(10_001), 1000); !near(got, 9991) {
		t.Errorf("tailAt(10001 samples, p99.9) = %v, want 9991", got)
	}
}

func TestMedianPairRatio(t *testing.T) {
	for _, tc := range []struct {
		name     string
		num, den []float64
		want     float64
	}{
		{"empty", nil, nil, 0},
		{"equal", []float64{2, 4, 6}, []float64{2, 4, 6}, 1},
		{"one slow block", []float64{1.05, 1.06, 9, 1.07, 1.05}, []float64{1, 1, 1, 1, 1}, 1.06},
		{"ragged", []float64{3, 3, 3}, []float64{2, 2}, 1.5},
		{"zero denominator skipped", []float64{1, 2, 3}, []float64{0, 1, 1}, 2.5},
	} {
		if got := medianPairRatio(tc.num, tc.den); !near(got, tc.want) {
			t.Errorf("%s: medianPairRatio = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRelGap(t *testing.T) {
	if got := relGap(90, 110); !near(got, 0.2) {
		t.Errorf("relGap(90,110) = %v, want 0.2", got)
	}
	if got := relGap(0, 0); got != 0 {
		t.Errorf("relGap(0,0) = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// Root 0..100 with children 10..30 and 20..50 (overlapping) and a
	// grandchild 12..20: root self = 100-40, first child self = 20-8.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "a", Start: 10e6, End: 30e6},
		{ID: 3, Parent: 1, Name: "b", Start: 20e6, End: 50e6},
		{ID: 4, Parent: 2, Name: "c", Start: 12e6, End: 20e6},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"root": 60, "a": 12, "b": 30, "c": 8} {
		if got := self[name]; len(got) != 1 || !near(got[0], want) {
			t.Errorf("self time of %s = %v, want [%v]", name, got, want)
		}
	}
}
