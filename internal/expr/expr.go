// Package expr implements the expression substrate of RUMOR: selection
// predicates over a single tuple, binary predicates over a (stored,
// incoming) tuple pair — as needed by the Cayuga sequence (;) and
// iteration (µ) operators — and schema maps (the paper's F formulas,
// SQL-SELECT-style projections, §4.2).
//
// Every expression exposes a canonical Key. Two operator definitions are
// "the same definition" in the sense of the paper's m-rules (§2.3, §3.2)
// exactly when their keys are equal; the rule engine relies on this.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stream"
)

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL-ish spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Apply evaluates "a o b".
//
//rumor:noalloc
func (o CmpOp) Apply(a, b int64) bool {
	switch o {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// ---------------------------------------------------------------------------
// Unary predicates
// ---------------------------------------------------------------------------

// Pred is a side-effect-free boolean predicate over one tuple.
type Pred interface {
	Eval(t *stream.Tuple) bool
	// Key is a canonical representation: equal keys ⇒ identical definition.
	Key() string
}

// ConstCmp compares attribute Attr with the constant C.
type ConstCmp struct {
	Attr int
	Op   CmpOp
	C    int64
}

// Eval implements Pred.
//
//rumor:noalloc
func (p ConstCmp) Eval(t *stream.Tuple) bool { return p.Op.Apply(t.Vals[p.Attr], p.C) }

// Key implements Pred.
func (p ConstCmp) Key() string { return fmt.Sprintf("a[%d]%s%d", p.Attr, p.Op, p.C) }

// AttrCmp compares two attributes of the same tuple.
type AttrCmp struct {
	A  int
	Op CmpOp
	B  int
}

// Eval implements Pred.
//
//rumor:noalloc
func (p AttrCmp) Eval(t *stream.Tuple) bool { return p.Op.Apply(t.Vals[p.A], t.Vals[p.B]) }

// Key implements Pred.
func (p AttrCmp) Key() string { return fmt.Sprintf("a[%d]%sa[%d]", p.A, p.Op, p.B) }

// True is the always-true predicate.
type True struct{}

// Eval implements Pred.
func (True) Eval(*stream.Tuple) bool { return true }

// Key implements Pred.
func (True) Key() string { return "true" }

// False is the always-false predicate.
type False struct{}

// Eval implements Pred.
func (False) Eval(*stream.Tuple) bool { return false }

// Key implements Pred.
func (False) Key() string { return "false" }

// And is the conjunction of its parts.
type And struct{ Parts []Pred }

// NewAnd builds a conjunction, flattening nested Ands.
func NewAnd(parts ...Pred) Pred {
	flat := make([]Pred, 0, len(parts))
	for _, p := range parts {
		if a, ok := p.(And); ok {
			flat = append(flat, a.Parts...)
			continue
		}
		if _, ok := p.(True); ok {
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	}
	return And{Parts: flat}
}

// Eval implements Pred.
//
//rumor:noalloc
func (p And) Eval(t *stream.Tuple) bool {
	for _, q := range p.Parts {
		if !q.Eval(t) {
			return false
		}
	}
	return true
}

// Key implements Pred. Conjunct order does not affect the key.
func (p And) Key() string {
	ks := make([]string, len(p.Parts))
	for i, q := range p.Parts {
		ks[i] = q.Key()
	}
	sort.Strings(ks)
	return "(" + strings.Join(ks, "&") + ")"
}

// Or is the disjunction of its parts.
type Or struct{ Parts []Pred }

// Eval implements Pred.
//
//rumor:noalloc
func (p Or) Eval(t *stream.Tuple) bool {
	for _, q := range p.Parts {
		if q.Eval(t) {
			return true
		}
	}
	return false
}

// Key implements Pred.
func (p Or) Key() string {
	ks := make([]string, len(p.Parts))
	for i, q := range p.Parts {
		ks[i] = q.Key()
	}
	sort.Strings(ks)
	return "(" + strings.Join(ks, "|") + ")"
}

// Not negates a predicate.
type Not struct{ P Pred }

// Eval implements Pred.
//
//rumor:noalloc
func (p Not) Eval(t *stream.Tuple) bool { return !p.P.Eval(t) }

// Key implements Pred.
func (p Not) Key() string { return "!" + p.P.Key() }

// IndexableEq inspects p and, if it contains an equality-with-constant
// conjunct a[attr] = c, returns that attribute, the constant, and the
// residual predicate (True if none). This is the hook used by the
// predicate-indexing m-op (sσ, [10,16]) and by the FR index (§4.3).
func IndexableEq(p Pred) (attr int, c int64, residual Pred, ok bool) {
	switch q := p.(type) {
	case ConstCmp:
		if q.Op == Eq {
			return q.Attr, q.C, True{}, true
		}
	case And:
		for i, part := range q.Parts {
			if cc, isCC := part.(ConstCmp); isCC && cc.Op == Eq {
				rest := make([]Pred, 0, len(q.Parts)-1)
				rest = append(rest, q.Parts[:i]...)
				rest = append(rest, q.Parts[i+1:]...)
				return cc.Attr, cc.C, NewAnd(rest...), true
			}
		}
	}
	return 0, 0, nil, false
}

// PredAttrs returns the attribute positions a predicate reads, and whether
// the predicate's structure is fully analyzable (every node is one of the
// package's standard combinators). The live re-merge replay uses it to
// decide whether a gating selection can be re-evaluated against partially
// reconstructed stored state (e.g. an aggregation window exposes only the
// group-by columns and the aggregated attribute).
func PredAttrs(p Pred) ([]int, bool) {
	seen := map[int]bool{}
	if !collectPredAttrs(p, seen) {
		return nil, false
	}
	out := make([]int, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Ints(out)
	return out, true
}

func collectPredAttrs(p Pred, seen map[int]bool) bool {
	switch q := p.(type) {
	case ConstCmp:
		seen[q.Attr] = true
	case AttrCmp:
		seen[q.A] = true
		seen[q.B] = true
	case True, False:
	case And:
		for _, part := range q.Parts {
			if !collectPredAttrs(part, seen) {
				return false
			}
		}
	case Or:
		for _, part := range q.Parts {
			if !collectPredAttrs(part, seen) {
				return false
			}
		}
	case Not:
		return collectPredAttrs(q.P, seen)
	default:
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Binary predicates (over a stored left tuple and an incoming right tuple)
// ---------------------------------------------------------------------------

// Pred2 is a side-effect-free boolean predicate over a pair of tuples:
// l is the stored tuple (automaton instance / join state), r the incoming
// event. Used by ⨝, ; and µ.
type Pred2 interface {
	Eval2(l, r *stream.Tuple) bool
	Key() string
}

// AttrCmp2 compares l.Vals[L] with r.Vals[R].
type AttrCmp2 struct {
	L  int
	Op CmpOp
	R  int
}

// Eval2 implements Pred2.
//
//rumor:noalloc
func (p AttrCmp2) Eval2(l, r *stream.Tuple) bool { return p.Op.Apply(l.Vals[p.L], r.Vals[p.R]) }

// Key implements Pred2.
func (p AttrCmp2) Key() string { return fmt.Sprintf("l[%d]%sr[%d]", p.L, p.Op, p.R) }

// Left lifts a unary predicate to apply to the left (stored) tuple.
type Left struct{ P Pred }

// Eval2 implements Pred2.
func (p Left) Eval2(l, _ *stream.Tuple) bool { return p.P.Eval(l) }

// Key implements Pred2.
func (p Left) Key() string { return "L:" + p.P.Key() }

// Right lifts a unary predicate to apply to the right (incoming) tuple.
type Right struct{ P Pred }

// Eval2 implements Pred2.
func (p Right) Eval2(_, r *stream.Tuple) bool { return p.P.Eval(r) }

// Key implements Pred2.
func (p Right) Key() string { return "R:" + p.P.Key() }

// Duration is the paper's "duration predicate" (§5.2, Workload 1): the
// incoming tuple must arrive within W time units of the stored tuple.
type Duration struct{ W int64 }

// Eval2 implements Pred2.
//
//rumor:noalloc
func (p Duration) Eval2(l, r *stream.Tuple) bool {
	d := r.TS - l.TS
	return d >= 0 && d <= p.W
}

// Key implements Pred2.
func (p Duration) Key() string { return fmt.Sprintf("dur<=%d", p.W) }

// True2 is the always-true binary predicate.
type True2 struct{}

// Eval2 implements Pred2.
func (True2) Eval2(_, _ *stream.Tuple) bool { return true }

// Key implements Pred2.
func (True2) Key() string { return "true" }

// False2 is the always-false binary predicate.
type False2 struct{}

// Eval2 implements Pred2.
func (False2) Eval2(_, _ *stream.Tuple) bool { return false }

// Key implements Pred2.
func (False2) Key() string { return "false" }

// And2 is a binary-predicate conjunction.
type And2 struct{ Parts []Pred2 }

// NewAnd2 builds a binary conjunction, flattening nested And2s and
// dropping True2 conjuncts.
func NewAnd2(parts ...Pred2) Pred2 {
	flat := make([]Pred2, 0, len(parts))
	for _, p := range parts {
		if a, ok := p.(And2); ok {
			flat = append(flat, a.Parts...)
			continue
		}
		if _, ok := p.(True2); ok {
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		return True2{}
	case 1:
		return flat[0]
	}
	return And2{Parts: flat}
}

// Eval2 implements Pred2.
//
//rumor:noalloc
func (p And2) Eval2(l, r *stream.Tuple) bool {
	for _, q := range p.Parts {
		if !q.Eval2(l, r) {
			return false
		}
	}
	return true
}

// Key implements Pred2.
func (p And2) Key() string {
	ks := make([]string, len(p.Parts))
	for i, q := range p.Parts {
		ks[i] = q.Key()
	}
	sort.Strings(ks)
	return "(" + strings.Join(ks, "&") + ")"
}

// Or2 is a binary-predicate disjunction.
type Or2 struct{ Parts []Pred2 }

// Eval2 implements Pred2.
//
//rumor:noalloc
func (p Or2) Eval2(l, r *stream.Tuple) bool {
	for _, q := range p.Parts {
		if q.Eval2(l, r) {
			return true
		}
	}
	return false
}

// Key implements Pred2.
func (p Or2) Key() string {
	ks := make([]string, len(p.Parts))
	for i, q := range p.Parts {
		ks[i] = q.Key()
	}
	sort.Strings(ks)
	return "(" + strings.Join(ks, "|") + ")"
}

// Not2 negates a binary predicate.
type Not2 struct{ P Pred2 }

// Eval2 implements Pred2.
func (p Not2) Eval2(l, r *stream.Tuple) bool { return !p.P.Eval2(l, r) }

// Key implements Pred2.
func (p Not2) Key() string { return "!" + p.P.Key() }

// EqJoinParts inspects p for an equi-join conjunct l[a] = r[b] and returns
// the attribute pair plus the residual predicate. This is the hook for the
// AI (active instance) index (§4.3, Workload 2): stored tuples are hashed
// on l[a] and probed with r[b].
func EqJoinParts(p Pred2) (lattr, rattr int, residual Pred2, ok bool) {
	switch q := p.(type) {
	case AttrCmp2:
		if q.Op == Eq {
			return q.L, q.R, True2{}, true
		}
	case And2:
		for i, part := range q.Parts {
			if ac, isAC := part.(AttrCmp2); isAC && ac.Op == Eq {
				rest := make([]Pred2, 0, len(q.Parts)-1)
				rest = append(rest, q.Parts[:i]...)
				rest = append(rest, q.Parts[i+1:]...)
				return ac.L, ac.R, NewAnd2(rest...), true
			}
		}
	}
	return 0, 0, nil, false
}

// RightIndexableEq inspects p for a conjunct of the form r[attr] = c
// (a constant predicate on the incoming tuple). This is the hook for the
// AN (active node) index (§5.2, Workload 1): the θ3 constants of many
// sequence operators are indexed so an incoming right tuple activates only
// the matching operators.
func RightIndexableEq(p Pred2) (attr int, c int64, residual Pred2, ok bool) {
	extract := func(part Pred2) (int, int64, bool) {
		rp, isR := part.(Right)
		if !isR {
			return 0, 0, false
		}
		cc, isCC := rp.P.(ConstCmp)
		if !isCC || cc.Op != Eq {
			return 0, 0, false
		}
		return cc.Attr, cc.C, true
	}
	if a, cv, k := extract(p); k {
		return a, cv, True2{}, true
	}
	if q, isAnd := p.(And2); isAnd {
		for i, part := range q.Parts {
			if a, cv, k := extract(part); k {
				rest := make([]Pred2, 0, len(q.Parts)-1)
				rest = append(rest, q.Parts[:i]...)
				rest = append(rest, q.Parts[i+1:]...)
				return a, cv, NewAnd2(rest...), true
			}
		}
	}
	return 0, 0, nil, false
}
