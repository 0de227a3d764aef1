package bitset

import (
	"math/rand"
	"testing"
)

// refSet is a trivially-correct reference implementation the inline-word /
// spilled-slice Set is mirrored against.
type refSet map[int]bool

func (r refSet) set(i int)       { r[i] = true }
func (r refSet) test(i int) bool { return r[i] }
func (r refSet) count() int      { return len(r) }

// checkAgainst verifies every read operation of s against the reference.
func checkAgainst(t *testing.T, step int, s *Set, r refSet, maxBit int) {
	t.Helper()
	if s.Count() != r.count() {
		t.Fatalf("step %d: Count=%d want %d (set=%s)", step, s.Count(), r.count(), s)
	}
	if s.Empty() != (r.count() == 0) {
		t.Fatalf("step %d: Empty=%v want %v", step, s.Empty(), r.count() == 0)
	}
	for i := 0; i <= maxBit; i++ {
		if s.Test(i) != r.test(i) {
			t.Fatalf("step %d: Test(%d)=%v want %v (set=%s)", step, i, s.Test(i), r.test(i), s)
		}
	}
	idx := s.Indices()
	if len(idx) != r.count() {
		t.Fatalf("step %d: Indices len=%d want %d", step, len(idx), r.count())
	}
	for _, i := range idx {
		if !r.test(i) {
			t.Fatalf("step %d: Indices contains %d not in reference", step, i)
		}
	}
}

// TestPropertyInlineVsReference drives a long random op sequence over sets
// whose bit indices straddle the 64-bit inline/spill boundary, mirroring
// every mutation against the reference implementation. Low maxBit keeps
// sets inline; high maxBit forces spills; the mid range exercises
// transitions and mixed inline/spilled binary operations.
func TestPropertyInlineVsReference(t *testing.T) {
	for _, maxBit := range []int{7, 63, 64, 65, 130, 300} {
		rng := rand.New(rand.NewSource(int64(maxBit)*7919 + 1))
		s := &Set{}
		r := refSet{}
		// A second (set, reference) pair for binary operations; refreshed
		// periodically so both inline and spilled "other" operands occur.
		o := &Set{}
		or := refSet{}
		for step := 0; step < 4000; step++ {
			bit := rng.Intn(maxBit + 1)
			switch op := rng.Intn(12); op {
			case 0, 1, 2:
				s.Set(bit)
				r.set(bit)
			case 4:
				o.Set(bit)
				or.set(bit)
			case 8:
				c := s.Clone()
				if key(c) != key(s) {
					t.Fatalf("step %d: clone differs: %s vs %s", step, c, s)
				}
				c.Set(maxBit) // mutating the clone must not touch s
				if s.Test(maxBit) != r.test(maxBit) {
					t.Fatalf("step %d: clone mutation leaked into original", step)
				}
			case 11:
				want := false
				for i := range r {
					if or.test(i) {
						want = true
						break
					}
				}
				if got := s.Intersects(o); got != want {
					t.Fatalf("step %d: Intersects=%v want %v (%s vs %s)", step, got, want, s, o)
				}
			}
			if step%97 == 0 {
				checkAgainst(t, step, s, r, maxBit)
				// Key canonicality: FromIndices over the reference must
				// produce the same key regardless of storage form.
				ref := FromIndices(r.keys()...)
				if key(ref) != key(s) {
					t.Fatalf("step %d: Key %q != canonical %q", step, key(s), key(ref))
				}
			}
			if step%501 == 500 {
				o = &Set{}
				or = refSet{}
			}
		}
		checkAgainst(t, 4000, s, r, maxBit)
	}
}

func (r refSet) keys() []int {
	out := make([]int, 0, len(r))
	for i := range r {
		out = append(out, i)
	}
	return out
}

// TestSingletonInterning checks the interned singletons are correct and
// that Clone produces an independently mutable copy.
func TestSingletonInterning(t *testing.T) {
	for i := 0; i < 70; i++ {
		s := Singleton(i)
		if s.Count() != 1 || !s.Test(i) {
			t.Fatalf("Singleton(%d) = %s", i, s)
		}
		c := s.Clone()
		c.Set(i + 1)
		if s.Test(i+1) || s.Count() != 1 {
			t.Fatalf("Singleton(%d) mutated via clone: %s", i, s)
		}
	}
	if Singleton(3) != Singleton(3) {
		t.Fatal("inline singletons should be interned")
	}
}

// TestFromIndicesPreSize checks large patterns land directly in spilled
// storage sized for the maximum index.
func TestFromIndicesPreSize(t *testing.T) {
	s := FromIndices(5, 200, 64)
	if s.Count() != 3 || !s.Test(5) || !s.Test(64) || !s.Test(200) {
		t.Fatalf("got %s", s)
	}
	if len(s.spill) != 200/64+1 {
		t.Fatalf("spill len=%d want %d", len(s.spill), 200/64+1)
	}
	if in := FromIndices(0, 63); in.spill != nil {
		t.Fatal("≤64-bit pattern should stay inline")
	}
}
