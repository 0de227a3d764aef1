package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func tup(ts int64, vals ...int64) *stream.Tuple { return stream.NewTuple(ts, vals...) }

func TestCmpOpApply(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b int64
		want bool
	}{
		{Eq, 1, 1, true}, {Eq, 1, 2, false},
		{Ne, 1, 2, true}, {Ne, 2, 2, false},
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Gt, 3, 2, true}, {Gt, 2, 2, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if CmpOp(99).Apply(1, 1) {
		t.Error("unknown op should be false")
	}
	if CmpOp(99).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestConstCmpAndKey(t *testing.T) {
	p := ConstCmp{Attr: 1, Op: Gt, C: 10}
	if !p.Eval(tup(0, 0, 11)) || p.Eval(tup(0, 0, 10)) {
		t.Fatal("ConstCmp misevaluated")
	}
	if p.Key() != "a[1]>10" {
		t.Fatalf("key = %q", p.Key())
	}
}

func TestAttrCmp(t *testing.T) {
	p := AttrCmp{A: 0, Op: Le, B: 1}
	if !p.Eval(tup(0, 3, 3)) || p.Eval(tup(0, 4, 3)) {
		t.Fatal("AttrCmp misevaluated")
	}
}

func TestBooleanCombinators(t *testing.T) {
	a := ConstCmp{Attr: 0, Op: Gt, C: 0}
	b := ConstCmp{Attr: 0, Op: Lt, C: 10}
	and := NewAnd(a, b)
	or := Or{Parts: []Pred{ConstCmp{0, Eq, 1}, ConstCmp{0, Eq, 2}}}
	not := Not{P: a}
	if !and.Eval(tup(0, 5)) || and.Eval(tup(0, 11)) {
		t.Fatal("And misevaluated")
	}
	if !or.Eval(tup(0, 2)) || or.Eval(tup(0, 3)) {
		t.Fatal("Or misevaluated")
	}
	if not.Eval(tup(0, 1)) || !not.Eval(tup(0, 0)) {
		t.Fatal("Not misevaluated")
	}
	if (True{}).Key() != "true" || (False{}).Eval(tup(0, 1)) {
		t.Fatal("constants broken")
	}
}

func TestNewAndFlattensAndSimplifies(t *testing.T) {
	a := ConstCmp{0, Eq, 1}
	b := ConstCmp{1, Eq, 2}
	nested := NewAnd(NewAnd(a, True{}), b)
	and, ok := nested.(And)
	if !ok || len(and.Parts) != 2 {
		t.Fatalf("expected flat 2-part And, got %#v", nested)
	}
	if NewAnd().Key() != "true" {
		t.Fatal("empty And should be True")
	}
	if NewAnd(a).Key() != a.Key() {
		t.Fatal("singleton And should collapse")
	}
}

func TestAndKeyOrderInsensitive(t *testing.T) {
	a := ConstCmp{0, Eq, 1}
	b := ConstCmp{1, Gt, 5}
	if NewAnd(a, b).Key() != NewAnd(b, a).Key() {
		t.Fatal("And key must be order-insensitive")
	}
	o1 := Or{Parts: []Pred{a, b}}
	o2 := Or{Parts: []Pred{b, a}}
	if o1.Key() != o2.Key() {
		t.Fatal("Or key must be order-insensitive")
	}
}

func TestIndexableEq(t *testing.T) {
	p := ConstCmp{Attr: 2, Op: Eq, C: 7}
	attr, c, res, ok := IndexableEq(p)
	if !ok || attr != 2 || c != 7 || res.Key() != "true" {
		t.Fatalf("IndexableEq(simple) = %d %d %v %v", attr, c, res, ok)
	}
	conj := NewAnd(ConstCmp{0, Gt, 1}, ConstCmp{3, Eq, 9})
	attr, c, res, ok = IndexableEq(conj)
	if !ok || attr != 3 || c != 9 || res.Key() != "a[0]>1" {
		t.Fatalf("IndexableEq(conj) = %d %d %q %v", attr, c, res.Key(), ok)
	}
	if _, _, _, ok := IndexableEq(ConstCmp{0, Gt, 1}); ok {
		t.Fatal("inequality should not be indexable")
	}
	if _, _, _, ok := IndexableEq(Or{Parts: []Pred{p}}); ok {
		t.Fatal("Or should not be indexable")
	}
}

func TestIndexableEqResidualEquivalence(t *testing.T) {
	// Property: p(t) ⇔ (t.a = c ∧ residual(t)) whenever extraction succeeds.
	f := func(v0, v1 int64) bool {
		p := NewAnd(ConstCmp{0, Eq, 5}, ConstCmp{1, Lt, 10})
		attr, c, res, ok := IndexableEq(p)
		if !ok {
			return false
		}
		t := tup(0, v0%8, v1%16)
		lhs := p.Eval(t)
		rhs := t.Vals[attr] == c && res.Eval(t)
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPred2Basics(t *testing.T) {
	l := tup(10, 1, 2)
	r := tup(15, 1, 9)
	if !(AttrCmp2{L: 0, Op: Eq, R: 0}).Eval2(l, r) {
		t.Fatal("AttrCmp2 eq failed")
	}
	if (AttrCmp2{L: 1, Op: Eq, R: 1}).Eval2(l, r) {
		t.Fatal("AttrCmp2 should fail on 2 vs 9")
	}
	if !(Left{P: ConstCmp{0, Eq, 1}}).Eval2(l, r) {
		t.Fatal("Left lift failed")
	}
	if !(Right{P: ConstCmp{1, Eq, 9}}).Eval2(l, r) {
		t.Fatal("Right lift failed")
	}
	if !(Duration{W: 5}).Eval2(l, r) || (Duration{W: 4}).Eval2(l, r) {
		t.Fatal("Duration window check failed")
	}
	if (Duration{W: 100}).Eval2(r, l) {
		t.Fatal("Duration must reject right-before-left")
	}
	if !(True2{}).Eval2(l, r) || (False2{}).Eval2(l, r) {
		t.Fatal("binary constants broken")
	}
	if !(Not2{P: False2{}}).Eval2(l, r) {
		t.Fatal("Not2 broken")
	}
}

func TestNewAnd2(t *testing.T) {
	a := AttrCmp2{0, Eq, 0}
	d := Duration{W: 3}
	p := NewAnd2(NewAnd2(a, True2{}), d)
	and, ok := p.(And2)
	if !ok || len(and.Parts) != 2 {
		t.Fatalf("expected flat And2, got %#v", p)
	}
	if NewAnd2().Key() != "true" || NewAnd2(a).Key() != a.Key() {
		t.Fatal("And2 simplification broken")
	}
	k1 := NewAnd2(a, d).Key()
	k2 := NewAnd2(d, a).Key()
	if k1 != k2 {
		t.Fatal("And2 key must be order-insensitive")
	}
}

func TestEqJoinParts(t *testing.T) {
	p := NewAnd2(AttrCmp2{L: 0, Op: Eq, R: 0}, Duration{W: 100})
	la, ra, res, ok := EqJoinParts(p)
	if !ok || la != 0 || ra != 0 || res.Key() != "dur<=100" {
		t.Fatalf("EqJoinParts = %d %d %q %v", la, ra, res.Key(), ok)
	}
	la, ra, res, ok = EqJoinParts(AttrCmp2{L: 3, Op: Eq, R: 4})
	if !ok || la != 3 || ra != 4 || res.Key() != "true" {
		t.Fatal("simple equi-join not detected")
	}
	if _, _, _, ok := EqJoinParts(AttrCmp2{L: 0, Op: Gt, R: 0}); ok {
		t.Fatal("inequality is not an equi-join")
	}
	if _, _, _, ok := EqJoinParts(Duration{W: 5}); ok {
		t.Fatal("Duration alone is not an equi-join")
	}
}

func TestRightIndexableEq(t *testing.T) {
	p := NewAnd2(Right{P: ConstCmp{Attr: 0, Op: Eq, C: 33}}, Duration{W: 10})
	attr, c, res, ok := RightIndexableEq(p)
	if !ok || attr != 0 || c != 33 || res.Key() != "dur<=10" {
		t.Fatalf("RightIndexableEq = %d %d %q %v", attr, c, res.Key(), ok)
	}
	attr, c, res, ok = RightIndexableEq(Right{P: ConstCmp{Attr: 1, Op: Eq, C: 5}})
	if !ok || attr != 1 || c != 5 || res.Key() != "true" {
		t.Fatal("bare Right eq not detected")
	}
	if _, _, _, ok := RightIndexableEq(Left{P: ConstCmp{0, Eq, 1}}); ok {
		t.Fatal("Left predicates are not AN-indexable")
	}
	if _, _, _, ok := RightIndexableEq(Right{P: ConstCmp{0, Gt, 1}}); ok {
		t.Fatal("inequality not AN-indexable")
	}
}

func TestEqJoinPartsEquivalence(t *testing.T) {
	f := func(lv, rv, l1, r1 int64) bool {
		p := NewAnd2(AttrCmp2{L: 0, Op: Eq, R: 0}, AttrCmp2{L: 1, Op: Lt, R: 1})
		la, ra, res, ok := EqJoinParts(p)
		if !ok {
			return false
		}
		l := tup(0, lv%4, l1%8)
		r := tup(1, rv%4, r1%8)
		return p.Eval2(l, r) == (l.Vals[la] == r.Vals[ra] && res.Eval2(l, r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaMap(t *testing.T) {
	m := &SchemaMap{Cols: []Expr{Col{1}, Lit{5}, Arith{Add, Col{0}, Lit{1}}, TS{}}}
	out := m.Apply(tup(9, 10, 20))
	want := []int64{20, 5, 11, 9}
	for i, v := range want {
		if out.Vals[i] != v {
			t.Fatalf("col %d = %d, want %d", i, out.Vals[i], v)
		}
	}
	if out.TS != 9 {
		t.Fatal("Apply must preserve timestamp")
	}
	if m.Arity() != 4 {
		t.Fatal("arity wrong")
	}
}

func TestArithOps(t *testing.T) {
	t0 := tup(0, 6, 3)
	cases := []struct {
		op   ArithOp
		want int64
	}{{Add, 9}, {Sub, 3}, {Mul, 18}, {Div, 2}}
	for _, c := range cases {
		e := Arith{c.op, Col{0}, Col{1}}
		if got := e.Eval(t0); got != c.want {
			t.Errorf("6 %s 3 = %d, want %d", c.op, got, c.want)
		}
	}
	if (Arith{Div, Col{0}, Lit{0}}).Eval(t0) != 0 {
		t.Error("division by zero should yield 0")
	}
	if (Arith{ArithOp(9), Col{0}, Col{1}}).Eval(t0) != 0 {
		t.Error("unknown arith op should yield 0")
	}
	if ArithOp(9).String() == "" || Add.String() != "+" {
		t.Error("ArithOp String broken")
	}
}

func TestIdentityMap(t *testing.T) {
	m := Identity(3)
	if !m.IsIdentity(3) || m.IsIdentity(2) {
		t.Fatal("IsIdentity wrong")
	}
	in := tup(4, 7, 8, 9)
	out := m.Apply(in)
	if !out.ContentEqual(in) {
		t.Fatal("identity must copy content")
	}
	swapped := &SchemaMap{Cols: []Expr{Col{1}, Col{0}, Col{2}}}
	if swapped.IsIdentity(3) {
		t.Fatal("swap is not identity")
	}
	lit := &SchemaMap{Cols: []Expr{Lit{1}, Col{1}, Col{2}}}
	if lit.IsIdentity(3) {
		t.Fatal("literal column is not identity")
	}
}

func TestSchemaMapKeyStable(t *testing.T) {
	m1 := &SchemaMap{Cols: []Expr{Col{0}, Col{1}}}
	m2 := &SchemaMap{Cols: []Expr{Col{0}, Col{1}}}
	m3 := &SchemaMap{Cols: []Expr{Col{1}, Col{0}}}
	if m1.Key() != m2.Key() {
		t.Fatal("equal maps must share a key")
	}
	if m1.Key() == m3.Key() {
		t.Fatal("column order must affect the key")
	}
}

func TestQuickKeyEqualImpliesSameEval(t *testing.T) {
	// Property: predicates built to have identical keys evaluate identically.
	preds := func(r *rand.Rand) Pred {
		switch r.Intn(3) {
		case 0:
			return ConstCmp{Attr: r.Intn(3), Op: CmpOp(r.Intn(6)), C: int64(r.Intn(5))}
		case 1:
			return AttrCmp{A: r.Intn(3), Op: CmpOp(r.Intn(6)), B: r.Intn(3)}
		default:
			return NewAnd(
				ConstCmp{Attr: r.Intn(3), Op: CmpOp(r.Intn(6)), C: int64(r.Intn(5))},
				ConstCmp{Attr: r.Intn(3), Op: CmpOp(r.Intn(6)), C: int64(r.Intn(5))},
			)
		}
	}
	f := func(seed int64, v0, v1, v2 int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		p1, p2 := preds(r1), preds(r2)
		if p1.Key() != p2.Key() {
			return false
		}
		tt := tup(0, v0%6, v1%6, v2%6)
		return p1.Eval(tt) == p2.Eval(tt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOr2(t *testing.T) {
	l := tup(0, 1, 2)
	r := tup(1, 3, 4)
	p := Or2{Parts: []Pred2{
		AttrCmp2{L: 0, Op: Eq, R: 0},              // 1 = 3: false
		Right{P: ConstCmp{Attr: 1, Op: Eq, C: 4}}, // true
	}}
	if !p.Eval2(l, r) {
		t.Fatal("Or2 should be true")
	}
	q := Or2{Parts: []Pred2{False2{}, False2{}}}
	if q.Eval2(l, r) {
		t.Fatal("Or2 of falses should be false")
	}
	k1 := Or2{Parts: []Pred2{False2{}, True2{}}}.Key()
	k2 := Or2{Parts: []Pred2{True2{}, False2{}}}.Key()
	if k1 != k2 {
		t.Fatal("Or2 key must be order-insensitive")
	}
}
