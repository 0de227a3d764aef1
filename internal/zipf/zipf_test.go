package zipf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDomainBounds(t *testing.T) {
	g := New(100, 1.5, 1)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < 1 || v > 100 {
			t.Fatalf("value %d out of [1,100]", v)
		}
	}
}

func TestNext0Bounds(t *testing.T) {
	g := New(10, 1.2, 7)
	for i := 0; i < 1000; i++ {
		v := g.Next0()
		if v < 0 || v > 9 {
			t.Fatalf("value %d out of [0,9]", v)
		}
	}
}

func TestFavoursLargeValues(t *testing.T) {
	// With invert=true (the paper's convention) the largest value must be
	// the most frequent by a wide margin at s=1.5.
	g := New(1000, 1.5, 42)
	counts := make(map[int]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[g.Next()]++
	}
	if counts[1000] < counts[1]*5 {
		t.Fatalf("expected value 1000 to dominate: counts[1000]=%d counts[1]=%d",
			counts[1000], counts[1])
	}
}

func TestUninvertedFavoursSmall(t *testing.T) {
	g, err := NewWith(1000, 1.5, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		counts[g.Next()]++
	}
	if counts[1] < counts[1000]*5 {
		t.Fatalf("expected value 1 to dominate: counts[1]=%d counts[1000]=%d",
			counts[1], counts[1000])
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(500, 1.3, 99)
	b := New(500, 1.3, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("generators with the same seed must agree")
		}
	}
}

func TestProbSumsToOne(t *testing.T) {
	g := New(200, 1.7, 3)
	sum := 0.0
	for v := 1; v <= 200; v++ {
		p := g.Prob(v)
		if p <= 0 {
			t.Fatalf("Prob(%d) = %v, want > 0", v, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v, want 1", sum)
	}
	if g.Prob(0) != 0 || g.Prob(201) != 0 {
		t.Fatal("out-of-domain Prob must be 0")
	}
}

func TestUniformWhenSZero(t *testing.T) {
	g := New(4, 0, 5)
	for v := 1; v <= 4; v++ {
		if math.Abs(g.Prob(v)-0.25) > 1e-9 {
			t.Fatalf("Prob(%d) = %v, want 0.25", v, g.Prob(v))
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewWith(0, 1.5, 1, true); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NewWith(10, -1, 1, true); err == nil {
		t.Fatal("negative exponent should error")
	}
	if _, err := NewWith(10, math.NaN(), 1, true); err == nil {
		t.Fatal("NaN exponent should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad args should panic")
		}
	}()
	New(-1, 1.5, 1)
}

func TestQuickEmpiricalSkewGrowsWithS(t *testing.T) {
	// Property: higher exponent concentrates more mass on the top value.
	f := func(seed int64) bool {
		top := func(s float64) int {
			g := New(100, s, seed)
			c := 0
			for i := 0; i < 20000; i++ {
				if g.Next() == 100 {
					c++
				}
			}
			return c
		}
		return top(2.0) > top(1.2)
	}
	cfg := &quick.Config{MaxCount: 5}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	g := New(77, 1.4, 2)
	sum := 0.0
	for v := 1; v <= 77; v++ {
		sum += g.Prob(v)
	}
	if math.Abs(sum-1) > 1e-9 || g.Prob(77) <= g.Prob(76) || g.Prob(0) != 0 || g.Prob(78) != 0 {
		t.Fatalf("Prob over 1..77 sums to %v, Prob(77)=%v Prob(76)=%v", sum, g.Prob(77), g.Prob(76))
	}
}
