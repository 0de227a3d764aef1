package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	s := New(0)
	if s.Test(3) {
		t.Fatal("fresh set should be empty")
	}
	s.Set(3)
	s.Set(100)
	if !s.Test(3) || !s.Test(100) {
		t.Fatal("bits not set")
	}
	if s.Test(4) || s.Test(99) {
		t.Fatal("unexpected bits set")
	}
	if got := s.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

// key is the set's canonical key: equal keys mean equal sets.
func key(s *Set) string { return string(s.AppendKey(nil)) }

func TestNegativeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) should panic")
		}
	}()
	New(8).Set(-1)
}

func TestNilReceiverReads(t *testing.T) {
	var s *Set
	if s.Test(0) || s.Count() != 0 || !s.Empty() {
		t.Fatal("nil set should behave as empty")
	}
	if key(s) != "" {
		t.Fatal("nil set key should be empty")
	}
	c := s.Clone()
	if c == nil || !c.Empty() {
		t.Fatal("Clone of nil should be usable empty set")
	}
}

func TestFromIndicesAndIndices(t *testing.T) {
	s := FromIndices(9, 2, 77, 2)
	want := []int{2, 9, 77}
	if got := s.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
}

func TestIntersects(t *testing.T) {
	a := FromIndices(5, 64)
	b := FromIndices(64)
	c := FromIndices(6, 65)
	if !a.Intersects(b) {
		t.Fatal("a and b share bit 64")
	}
	if a.Intersects(c) {
		t.Fatal("a and c are disjoint")
	}
	if a.Intersects(nil) || (*Set)(nil).Intersects(a) {
		t.Fatal("nil never intersects")
	}
}

func TestEqualIgnoresTrailingZeros(t *testing.T) {
	a := FromIndices(1)
	b := New(1000)
	b.Set(1)
	if key(a) != key(b) {
		t.Fatalf("keys must ignore capacity: %q vs %q", key(a), key(b))
	}
	b.Set(999)
	if key(a) == key(b) {
		t.Fatal("sets differ")
	}
}

func TestCopyFromAndReset(t *testing.T) {
	a := FromIndices(3, 4)
	b := a.Clone()
	if key(a) != key(b) {
		t.Fatal("Clone mismatch")
	}
	b.Set(9)
	if a.Test(9) {
		t.Fatal("Clone must not alias")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(1, 2, 3)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("seen = %v", seen)
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(0, 65).String(); got != "{0,65}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// randSet builds a set from a seed, for property tests.
func randSet(r *rand.Rand) *Set {
	s := &Set{}
	n := r.Intn(6)
	for i := 0; i < n; i++ {
		s.Set(r.Intn(192))
	}
	return s
}

func TestQuickKeyCanonical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randSet(r)
		b := a.Clone()
		// Give b extra capacity; key must be identical.
		b.ensure(1024)
		return key(a) == key(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
