package bitset

import (
	"math/rand"
	"testing"
)

// TestGrowPreservesContent widens inline sets to multi-word storage and
// checks that every operation observes identical contents before and
// after — the invariant live channel growth relies on when a channel's
// membership domain crosses the 64-position inline boundary.
func TestGrowPreservesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var idx []int
		for i := 0; i < 64; i++ {
			if rng.Intn(3) == 0 {
				idx = append(idx, i)
			}
		}
		s := FromIndices(idx...)
		ref := s.Clone()
		s.ensure(64 + rng.Intn(512))
		if len(s.spill) < 2 {
			t.Fatalf("ensure did not widen: %d words", len(s.spill))
		}
		for i := 0; i < 128; i++ {
			if s.Test(i) != ref.Test(i) {
				t.Fatalf("bit %d differs after Grow", i)
			}
		}
		if s.Count() != ref.Count() {
			t.Fatalf("count differs after Grow: %d vs %d", s.Count(), ref.Count())
		}
		if key(s) != key(ref) {
			t.Fatalf("key differs after Grow: %q vs %q", key(s), key(ref))
		}
	}
}

// TestGrowThenSetHighBits verifies a widened set accepts positions ≥ 64
// while an un-widened clone of the original keeps reading the shared low
// bits — no invalidation of narrow readers.
func TestGrowThenSetHighBits(t *testing.T) {
	s := FromIndices(3, 17, 63)
	narrow := s.Clone()
	s.Set(64)
	s.Set(129)
	if !s.Test(3) || !s.Test(63) || !s.Test(64) || !s.Test(129) {
		t.Fatalf("widened set lost bits: %s", s)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d, want 5", s.Count())
	}
	// Narrow readers: missing high words read as zero.
	if narrow.Test(64) || narrow.Test(129) {
		t.Fatal("inline clone sees high bits it never set")
	}
	if !s.Intersects(narrow) || !narrow.Intersects(s) {
		t.Fatal("widened and inline sets must intersect on shared low bits")
	}
}

// TestSingletonAgainstWideSets checks interned single-word singletons
// interoperate with multi-word sets: the singleton stays immutable and
// read-consistent while wide sets reference its position.
func TestSingletonAgainstWideSets(t *testing.T) {
	wide := FromIndices(5, 70, 200)
	for i := 0; i < wordBits; i++ {
		one := Singleton(i)
		if one.Count() != 1 || !one.Test(i) {
			t.Fatalf("singleton %d corrupted: %s", i, one)
		}
		wantHit := i == 5
		if one.Intersects(wide) != wantHit || wide.Intersects(one) != wantHit {
			t.Fatalf("singleton %d vs wide intersection wrong", i)
		}
	}
	// Union of a widened clone with a singleton's bits must not touch the
	// interned set.
	c := Singleton(9).Clone()
	wide.ForEach(func(i int) bool { c.Set(i); return true })
	if Singleton(9).Count() != 1 {
		t.Fatal("interned singleton mutated via clone")
	}
	for _, want := range []int{5, 9, 70} {
		if !c.Test(want) {
			t.Fatalf("union missing bit %d: %s", want, c)
		}
	}
}
