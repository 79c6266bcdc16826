package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report,
// highest first. A percentile is only reported when at least
// minBeyond samples lie above it, so a p99 from 300 samples (three
// beyond) is never passed off as a tail.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie strictly beyond a
// reported percentile.
const minBeyond = 10

// quantile returns the q-th percentile (0..100) of sorted xs by the
// nearest-rank method: the smallest sample with at least q% of the
// samples at or below it. Empty input gives NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples that lie above the q-th percentile's rank.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile returns the highest ladder percentile, capped at
// maxQ, that has at least minBeyond samples beyond it among n
// samples. With too few samples for any ladder rung it returns 50
// (the median), whose value the caller still reports with its count.
func tailPercentile(n int, maxQ float64) float64 {
	for _, q := range tailLadder {
		if q > maxQ {
			continue
		}
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 50
}

// dist is a sample of one timing, kept so that medians and tails are
// computed from every observation, not from running means.
type dist struct{ xs []float64 }

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }
func (d *dist) n() int        { return len(d.xs) }

// sorted returns a sorted copy of the samples.
func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return s
}

// p returns the q-th percentile of the samples.
func (d *dist) p(q float64) float64 { return quantile(d.sorted(), q) }

// tail returns the tail percentile chosen by the minBeyond rule
// (capped at maxQ) and its value.
func (d *dist) tail(maxQ float64) (q, v float64) {
	q = tailPercentile(d.n(), maxQ)
	return q, d.p(q)
}

// median of xs (NaN for none), without modifying xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads
// computed here match the ones a reader computes from the raw values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	// The cut-point arithmetic of CPython's statistics.quantiles.
	at := func(i int) float64 {
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
	return at(1), at(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
