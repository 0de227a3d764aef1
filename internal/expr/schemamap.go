package expr

import (
	"fmt"
	"strings"

	"repro/internal/stream"
)

// ArithOp is an arithmetic operator for schema-map expressions.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the spelling of the operator.
func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return fmt.Sprintf("arith(%d)", int(o))
}

// Expr is an integer-valued expression over one tuple, used in schema maps
// (the Cayuga F formulas / SQL SELECT clause, §4.2).
type Expr interface {
	Eval(t *stream.Tuple) int64
	Key() string
}

// Col references attribute I of the input tuple.
type Col struct{ I int }

// Eval implements Expr.
func (e Col) Eval(t *stream.Tuple) int64 { return t.Vals[e.I] }

// Key implements Expr.
func (e Col) Key() string { return fmt.Sprintf("a[%d]", e.I) }

// Lit is an integer literal.
type Lit struct{ C int64 }

// Eval implements Expr.
func (e Lit) Eval(*stream.Tuple) int64 { return e.C }

// Key implements Expr.
func (e Lit) Key() string { return fmt.Sprintf("%d", e.C) }

// TS references the tuple's timestamp.
type TS struct{}

// Eval implements Expr.
func (TS) Eval(t *stream.Tuple) int64 { return t.TS }

// Key implements Expr.
func (TS) Key() string { return "ts" }

// Arith combines two expressions. Division by zero yields 0 (streams must
// not crash on data).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (e Arith) Eval(t *stream.Tuple) int64 {
	a, b := e.L.Eval(t), e.R.Eval(t)
	switch e.Op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	}
	return 0
}

// Key implements Expr.
func (e Arith) Key() string {
	return "(" + e.L.Key() + e.Op.String() + e.R.Key() + ")"
}

// SchemaMap is an ordered list of output-column expressions: it renames,
// projects, and computes attributes (the paper's schema map functions F,
// §4.2, and the π operator of Figure 5).
type SchemaMap struct {
	Cols []Expr
}

// Apply evaluates the map on t, returning a fresh tuple with the same
// timestamp and membership reference.
func (m *SchemaMap) Apply(t *stream.Tuple) *stream.Tuple {
	out := &stream.Tuple{TS: t.TS, Vals: make([]int64, len(m.Cols)), Member: t.Member}
	for i, e := range m.Cols {
		out.Vals[i] = e.Eval(t)
	}
	return out
}

// Arity returns the number of output columns.
func (m *SchemaMap) Arity() int { return len(m.Cols) }

// Key is the canonical definition key of the map. Column order matters.
func (m *SchemaMap) Key() string {
	ks := make([]string, len(m.Cols))
	for i, e := range m.Cols {
		ks[i] = e.Key()
	}
	return "[" + strings.Join(ks, ";") + "]"
}
