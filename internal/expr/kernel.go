package expr

import "math/bits"

// Columnar predicate kernels: the vectorized execution path evaluates a
// selection predicate over a whole column into a selection bitmap instead
// of calling Eval once per tuple. Only the package's standard combinators
// are kernelizable — Columnar gates the block path at lowering time, so an
// exotic Pred implementation simply keeps its operators on the scalar path.

// Columnar reports whether p can be evaluated against column-major data by
// FilterSel/EvalAt: every node is one of the package's standard combinators
// (ConstCmp, AttrCmp, True, False, And, Or, Not).
//
//rumor:noalloc
func Columnar(p Pred) bool {
	switch q := p.(type) {
	case ConstCmp, AttrCmp, True, False:
		return true
	case And:
		for _, part := range q.Parts {
			if !Columnar(part) {
				return false
			}
		}
		return true
	case Or:
		for _, part := range q.Parts {
			if !Columnar(part) {
				return false
			}
		}
		return true
	case Not:
		return Columnar(q.P)
	}
	return false
}

// EvalAt evaluates p against row i of column-major data: cols[a][i] is the
// row's value of attribute a. It mirrors Pred.Eval exactly (including the
// panic on an out-of-range attribute). p must be Columnar.
//
//rumor:noalloc
func EvalAt(p Pred, cols [][]int64, i int) bool {
	switch q := p.(type) {
	case ConstCmp:
		return q.Op.Apply(cols[q.Attr][i], q.C)
	case AttrCmp:
		return q.Op.Apply(cols[q.A][i], cols[q.B][i])
	case True:
		return true
	case False:
		return false
	case And:
		for _, part := range q.Parts {
			if !EvalAt(part, cols, i) {
				return false
			}
		}
		return true
	case Or:
		for _, part := range q.Parts {
			if EvalAt(part, cols, i) {
				return true
			}
		}
		return false
	case Not:
		return !EvalAt(q.P, cols, i)
	}
	panic("expr: EvalAt on non-columnar predicate")
}

// FilterSel narrows sel to the rows satisfying p: bit i survives iff it was
// set and p holds at row i. Conjunctions are applied as a fused chain of
// per-conjunct column passes — each pass reads one attribute contiguously
// and the selection only narrows, so later conjuncts touch fewer rows.
// p must be Columnar. Bits past the row count must be (and stay) zero.
//
//rumor:noalloc
func FilterSel(p Pred, cols [][]int64, sel []uint64) {
	switch q := p.(type) {
	case True:
		return
	case False:
		clear(sel)
		return
	case And:
		for _, part := range q.Parts {
			FilterSel(part, cols, sel)
		}
		return
	case ConstCmp:
		col := cols[q.Attr]
		op, c := q.Op, q.C
		for wi, w := range sel {
			if w == 0 {
				continue
			}
			base := wi << 6
			var out uint64
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << uint(b)
				if op.Apply(col[base+b], c) {
					out |= 1 << uint(b)
				}
			}
			sel[wi] = out
		}
		return
	case AttrCmp:
		ca, cb := cols[q.A], cols[q.B]
		op := q.Op
		for wi, w := range sel {
			if w == 0 {
				continue
			}
			base := wi << 6
			var out uint64
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << uint(b)
				if op.Apply(ca[base+b], cb[base+b]) {
					out |= 1 << uint(b)
				}
			}
			sel[wi] = out
		}
		return
	}
	// Or / Not (and any nesting of them): per-row evaluation over the
	// surviving selection. Rare in the benchmark workloads, still exact.
	for wi, w := range sel {
		if w == 0 {
			continue
		}
		base := wi << 6
		var out uint64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			if EvalAt(p, cols, base+b) {
				out |= 1 << uint(b)
			}
		}
		sel[wi] = out
	}
}
