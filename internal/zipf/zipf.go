// Package zipf implements the Zipfian sampler used by the paper's workload
// generators (§5.1, Table 3): values are drawn from {1, …, N} with
// P(rank k) ∝ 1/k^s, and the paper's convention that larger values (e.g.
// longer windows) are the most likely — rank 1 maps to value N, rank 2 to
// value N-1, and so on.
package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Gen draws Zipf-distributed values from a fixed domain.
type Gen struct {
	n      int
	s      float64
	cdf    []float64 // cdf[k-1] = P(rank ≤ k)
	rng    *rand.Rand
	invert bool // rank 1 → largest value (the paper's convention)
}

// New returns a generator over domain {1, …, n} with exponent s ≥ 0,
// favouring large values, seeded deterministically.
func New(n int, s float64, seed int64) *Gen {
	g, err := NewWith(n, s, seed, true)
	if err != nil {
		panic(err)
	}
	return g
}

// NewWith is like New but reports errors and lets the caller choose whether
// rank 1 maps to the largest value (invert=true) or the smallest.
func NewWith(n int, s float64, seed int64, invert bool) (*Gen, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zipf: domain size must be positive, got %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("zipf: exponent must be a finite non-negative number, got %v", s)
	}
	g := &Gen{n: n, s: s, rng: rand.New(rand.NewSource(seed)), invert: invert}
	g.cdf = make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		g.cdf[k-1] = sum
	}
	for k := range g.cdf {
		g.cdf[k] /= sum
	}
	return g, nil
}

// Next draws the next value in {1, …, n}.
func (g *Gen) Next() int {
	u := g.rng.Float64()
	rank := sort.SearchFloat64s(g.cdf, u) + 1
	if rank > g.n {
		rank = g.n
	}
	if g.invert {
		return g.n - rank + 1
	}
	return rank
}

// Next0 draws a value in {0, …, n-1}; convenient for attribute constants.
func (g *Gen) Next0() int { return g.Next() - 1 }

// Prob returns the probability of drawing value v (under the generator's
// value mapping). It returns 0 for out-of-domain values.
//
//rumor:allow deadexport reference implementation: the exact probability the sampler tests check against
func (g *Gen) Prob(v int) float64 {
	if v < 1 || v > g.n {
		return 0
	}
	rank := v
	if g.invert {
		rank = g.n - v + 1
	}
	lo := 0.0
	if rank > 1 {
		lo = g.cdf[rank-2]
	}
	return g.cdf[rank-1] - lo
}
