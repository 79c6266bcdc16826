package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		maxQ float64
		want float64
	}{
		{n: 2000, maxQ: 99, want: 99}, // 20 beyond p99
		{n: 1000, maxQ: 99, want: 99}, // exactly 10 beyond
		{n: 999, maxQ: 99, want: 95},  // 9 beyond p99, 49 beyond p95
		{n: 200, maxQ: 99, want: 95},  // 10 beyond p95
		{n: 199, maxQ: 99, want: 90},  // 9 beyond p95
		{n: 100, maxQ: 95, want: 90},  // 10 beyond p90
		{n: 20000, maxQ: 99.9, want: 99.9},
		{n: 20000, maxQ: 95, want: 95}, // capped
		{n: 30, maxQ: 99, want: 50},    // 15 beyond the median
		{n: 5, maxQ: 99, want: 50},     // too few for any rung: median
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.maxQ); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.maxQ, got, c.want)
		}
		if q := tailPercentile(c.n, c.maxQ); q != 50 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, q, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 99: 10, 10: 1, 0: 1, 100: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestDistTailReportsRuleRung(t *testing.T) {
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(float64(i))
	}
	q, v := d.tail(99)
	if q != 99 || v != 990 {
		t.Errorf("tail = p%g %g, want p99 990", q, v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.7, 5.5, 4.2, 3.3}, 2.9, 4.85},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}, 2, 34},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if s := relSpread(xs); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread = %g, want 1", s)
	}
}
