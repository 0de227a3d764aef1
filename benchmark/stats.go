package main

import (
	"math"
	"sort"
)

// stat is how every metric is reported: the median of its samples, their
// quartiles and how many there were.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted samples
// by nearest rank: the smallest sample with at least p% of them at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so a spread computed here is the spread
// the acceptance check computes. Fewer than two samples have no spread:
// all three cut points are the sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
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
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64, unit string) stat {
	q1, q2, q3 := quartiles(xs)
	return stat{Median: q2, Q1: q1, Q3: q3, N: len(xs), Unit: unit}
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
