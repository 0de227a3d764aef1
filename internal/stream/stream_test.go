package stream

import (
	"testing"

	"repro/internal/bitset"
)

func TestNewTupleAndClone(t *testing.T) {
	tu := NewTuple(7, 1, 2, 3)
	if tu.TS != 7 || len(tu.Vals) != 3 {
		t.Fatalf("bad tuple: %v", tu)
	}
	tu.Member = bitset.FromIndices(0, 2)
	c := NewPool().Clone(tu)
	c.Vals[0] = 99
	c.Member.Set(5)
	if tu.Vals[0] != 1 || tu.Member.Test(5) {
		t.Fatal("Clone must not alias")
	}
}

func TestWithMemberShares(t *testing.T) {
	tu := NewTuple(1, 10)
	m := bitset.FromIndices(1)
	w := NewPool().WithMember(tu, m)
	if w.Member != m {
		t.Fatal("WithMember should carry the given set")
	}
	if &w.Vals[0] != &tu.Vals[0] {
		t.Fatal("WithMember should share values")
	}
}

func TestContentEqualAndKey(t *testing.T) {
	a := NewTuple(5, 1, 2)
	b := NewTuple(5, 1, 2)
	b.Member = bitset.FromIndices(3)
	if !a.ContentEqual(b) {
		t.Fatal("membership must not affect content equality")
	}
	if a.ContentKey() != b.ContentKey() {
		t.Fatal("keys must match for equal content")
	}
	c := NewTuple(5, 1, 3)
	d := NewTuple(6, 1, 2)
	e := NewTuple(5, 1)
	for _, o := range []*Tuple{c, d, e} {
		if a.ContentEqual(o) {
			t.Fatalf("tuples should differ: %v vs %v", a, o)
		}
	}
	if a.String() == "" || b.String() == a.String() {
		t.Fatal("String should include membership when present")
	}
}

func TestSchemaBasics(t *testing.T) {
	s, err := NewSchema("CPU", "pid", "load")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.Index("pid") != 0 || s.Index("load") != 1 {
		t.Fatal("index lookup broken")
	}
	if s.Index("nope") != -1 {
		t.Fatal("missing attribute should return -1")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("X", "a", "a"); err == nil {
		t.Fatal("duplicate attribute should error")
	}
	if _, err := NewSchema("X", ""); err == nil {
		t.Fatal("empty attribute should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on error")
		}
	}()
	MustSchema("X", "a", "a")
}

func TestConcat(t *testing.T) {
	s := MustSchema("S", "a", "b")
	o := MustSchema("T", "b", "c")
	c := s.Concat(o, "t_")
	want := []string{"a", "b", "t_b", "c"}
	if c.Arity() != 4 {
		t.Fatalf("arity = %d", c.Arity())
	}
	for i, a := range want {
		if c.Attrs[i] != a {
			t.Fatalf("attr %d = %q, want %q", i, c.Attrs[i], a)
		}
	}
}

func TestConcatCollisionFallback(t *testing.T) {
	// Prefixing itself collides: "t_b" already present on the left.
	s := MustSchema("S", "b", "t_b")
	o := MustSchema("T", "b")
	c := s.Concat(o, "t_")
	if c.Arity() != 3 {
		t.Fatalf("arity = %d", c.Arity())
	}
	seen := map[string]bool{}
	for _, a := range c.Attrs {
		if seen[a] {
			t.Fatalf("duplicate attribute %q after fallback", a)
		}
		seen[a] = true
	}
}

func TestUnionCompatible(t *testing.T) {
	a := MustSchema("A", "x", "y")
	b := MustSchema("B", "p", "q")
	c := MustSchema("C", "p")
	if !a.UnionCompatible(b) || a.UnionCompatible(c) {
		t.Fatal("union compatibility should be arity-based")
	}
}
