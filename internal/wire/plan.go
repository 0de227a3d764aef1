package wire

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
)

// Plan codec: serializes the structural half of a checkpoint — operator
// definitions (closed combinator languages from package expr), logical
// query trees, the plan snapshot, and the partition plan with its routing
// table. The sum types of package expr are encoded as {1=type, ...fields}
// messages: each has a wire form, declared once, and the mapping between
// its variants and their forms.

// ---------------------------------------------------------------------------
// Sum types: predicates and expressions
// ---------------------------------------------------------------------------

// Unary predicate type tags.
//
//rumor:wiretags
const (
	predConstCmp = 1
	predAttrCmp  = 2
	predTrue     = 3
	predFalse    = 4
	predAnd      = 5
	predOr       = 6
	predNot      = 7
)

// Binary predicate type tags.
//
//rumor:wiretags
const (
	pred2AttrCmp  = 1
	pred2Left     = 2
	pred2Right    = 3
	pred2Duration = 4
	pred2True     = 5
	pred2False    = 6
	pred2And      = 7
	pred2Or       = 8
	pred2Not      = 9
)

// Schema-map expression type tags.
//
//rumor:wiretags
const (
	exprCol   = 1
	exprLit   = 2
	exprTS    = 3
	exprArith = 4
)

// operands is the wire form both predicate languages share: the type tag,
// the integer operands and the nested operands, each an encoded predicate.
// A decoded form's lists start in its own arrays, which hold as many
// operands as a predicate takes but for And and Or.
type operands struct {
	typ  int64
	ints []int64
	subs [][]byte
	ibuf [3]int64
	sbuf [1][]byte
}

// operandFields declares a predicate: 1=type, then its integers at fields
// 2, 3 and 4 in order and its nested predicates repeated at field 2. A
// decoder tells the two apart at field 2 by wire type.
func operandFields(c *Codec, m *operands) {
	c.Init(func() { m.ints, m.subs = m.ibuf[:0], m.sbuf[:0] })
	Varint(c, 1, &m.typ)
	if !c.dec {
		for i, v := range m.ints {
			c.PutVarintField(2+i, v)
		}
		for _, s := range m.subs {
			c.PutBytesField(2, s)
		}
		return
	}
	switch {
	case c.f == 2 && c.wt != wtVarint:
		s, err := c.r.Bytes()
		c.fail(err)
		m.subs = append(m.subs, s)
	case c.f >= 2 && c.f <= 4:
		v, err := c.r.Varint()
		c.fail(err)
		m.ints = append(m.ints, v)
	}
}

// exprForm is the wire form of an expression: the type tag, its integer
// argument (a column, a literal or an operator; the last one counts), and
// an operator's operands, each an encoded expression.
type exprForm struct {
	typ  int64
	args []int64
	l, r []byte
}

func exprFields(c *Codec, m *exprForm) {
	Varint(c, 1, &m.typ)
	if !c.dec {
		for _, v := range m.args {
			c.PutVarintField(2, v)
		}
	} else if c.f == 2 {
		v, err := c.r.Varint()
		c.fail(err)
		m.args = append(m.args, v)
	}
	c.Blob(3|OmitEmpty, &m.l)
	c.Blob(4|OmitEmpty, &m.r)
}

// encodeSum encodes v's wire form, which form gives and fields declares.
func encodeSum[V, M any](v V, form func(V) (M, error), fields func(*Codec, *M)) ([]byte, error) {
	m, err := form(v)
	if err != nil {
		return nil, err
	}
	return Marshal(&m, fields)
}

// decodeSum decodes the wire form p, which fields declares, on c at
// nesting depth, and returns the value that value makes of it; a form
// nested more than maxDepth deep fails with deep.
func decodeSum[V, M any](c *Codec, p []byte, depth int, deep string, fields func(*Codec, *M), value func(*Codec, *M, int) (V, error)) (V, error) {
	var m M
	if depth > maxDepth {
		var zero V
		return zero, corrupt("%s", deep)
	}
	if err := sub(c, p, &m, fields); err != nil {
		var zero V
		return zero, err
	}
	return value(c, &m, depth)
}

// nestedForm is the form of tag typ over parts, each encoded by enc.
func nestedForm[V any](typ int64, enc func(V) ([]byte, error), parts ...V) (operands, error) {
	m := operands{typ: typ}
	for _, part := range parts {
		sub, err := enc(part)
		if err != nil {
			return m, err
		}
		m.subs = append(m.subs, sub)
	}
	return m, nil
}

// decodeOne decodes the one nested operand of m on c at depth; a form with
// another number of them fails with bad.
func decodeOne[V any](c *Codec, m *operands, depth int, bad string, dec func(*Codec, []byte, int) (V, error)) (V, error) {
	if len(m.subs) != 1 {
		var zero V
		return zero, corrupt("%s", bad)
	}
	return dec(c, m.subs[0], depth)
}

// decodeParts decodes each nested operand of m on c at depth.
func decodeParts[V any](c *Codec, m *operands, depth int, dec func(*Codec, []byte, int) (V, error)) ([]V, error) {
	parts := make([]V, 0, len(m.subs))
	for _, s := range m.subs {
		part, err := dec(c, s, depth)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return parts, nil
}

func encodePred(p expr.Pred) ([]byte, error) { return encodeSum(p, predForm, operandFields) }

func decodePred(c *Codec, p []byte, depth int) (expr.Pred, error) {
	return decodeSum(c, p, depth, "predicate nesting too deep", operandFields, predValue)
}

func predForm(p expr.Pred) (operands, error) {
	switch q := p.(type) {
	case expr.ConstCmp:
		return operands{typ: predConstCmp, ints: []int64{int64(q.Attr), int64(q.Op), q.C}}, nil
	case expr.AttrCmp:
		return operands{typ: predAttrCmp, ints: []int64{int64(q.A), int64(q.Op), int64(q.B)}}, nil
	case expr.True:
		return operands{typ: predTrue}, nil
	case expr.False:
		return operands{typ: predFalse}, nil
	case expr.And:
		return nestedForm(predAnd, encodePred, q.Parts...)
	case expr.Or:
		return nestedForm(predOr, encodePred, q.Parts...)
	case expr.Not:
		return nestedForm(predNot, encodePred, q.P)
	}
	return operands{}, fmt.Errorf("wire: unserializable predicate type %T", p)
}

func predValue(c *Codec, m *operands, depth int) (expr.Pred, error) {
	ints := m.ints
	switch m.typ {
	case predConstCmp, predAttrCmp:
		if len(ints) < 3 {
			return nil, corrupt("predicate type %d: missing fields", m.typ)
		}
		if m.typ == predConstCmp {
			return expr.ConstCmp{Attr: int(ints[0]), Op: expr.CmpOp(ints[1]), C: ints[2]}, nil
		}
		return expr.AttrCmp{A: int(ints[0]), Op: expr.CmpOp(ints[1]), B: int(ints[2])}, nil
	case predTrue:
		return expr.True{}, nil
	case predFalse:
		return expr.False{}, nil
	case predAnd, predOr:
		parts, err := decodeParts(c, m, depth+1, decodePred)
		if err != nil {
			return nil, err
		}
		if m.typ == predAnd {
			return expr.And{Parts: parts}, nil
		}
		return expr.Or{Parts: parts}, nil
	case predNot:
		inner, err := decodeOne(c, m, depth+1, "not-predicate needs one child", decodePred)
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	}
	return nil, corrupt("unknown predicate type %d", m.typ)
}

func encodePred2(p expr.Pred2) ([]byte, error) { return encodeSum(p, pred2Form, operandFields) }

func decodePred2(c *Codec, p []byte, depth int) (expr.Pred2, error) {
	return decodeSum(c, p, depth, "binary predicate nesting too deep", operandFields, pred2Value)
}

func pred2Form(p expr.Pred2) (operands, error) {
	switch q := p.(type) {
	case expr.AttrCmp2:
		return operands{typ: pred2AttrCmp, ints: []int64{int64(q.L), int64(q.Op), int64(q.R)}}, nil
	case expr.Left:
		return nestedForm(pred2Left, encodePred, q.P)
	case expr.Right:
		return nestedForm(pred2Right, encodePred, q.P)
	case expr.Duration:
		return operands{typ: pred2Duration, ints: []int64{q.W}}, nil
	case expr.True2:
		return operands{typ: pred2True}, nil
	case expr.False2:
		return operands{typ: pred2False}, nil
	case expr.And2:
		return nestedForm(pred2And, encodePred2, q.Parts...)
	case expr.Or2:
		return nestedForm(pred2Or, encodePred2, q.Parts...)
	case expr.Not2:
		return nestedForm(pred2Not, encodePred2, q.P)
	}
	return operands{}, fmt.Errorf("wire: unserializable binary predicate type %T", p)
}

func pred2Value(c *Codec, m *operands, depth int) (expr.Pred2, error) {
	ints := m.ints
	switch m.typ {
	case pred2AttrCmp:
		if len(ints) < 3 {
			return nil, corrupt("attrcmp2: missing fields")
		}
		return expr.AttrCmp2{L: int(ints[0]), Op: expr.CmpOp(ints[1]), R: int(ints[2])}, nil
	case pred2Left, pred2Right:
		inner, err := decodeOne(c, m, depth+1, "left/right lift needs one child", decodePred)
		if err != nil {
			return nil, err
		}
		if m.typ == pred2Left {
			return expr.Left{P: inner}, nil
		}
		return expr.Right{P: inner}, nil
	case pred2Duration:
		if len(ints) < 1 {
			return nil, corrupt("duration: missing window")
		}
		return expr.Duration{W: ints[0]}, nil
	case pred2True:
		return expr.True2{}, nil
	case pred2False:
		return expr.False2{}, nil
	case pred2And, pred2Or:
		parts, err := decodeParts(c, m, depth+1, decodePred2)
		if err != nil {
			return nil, err
		}
		if m.typ == pred2And {
			return expr.And2{Parts: parts}, nil
		}
		return expr.Or2{Parts: parts}, nil
	case pred2Not:
		inner, err := decodeOne(c, m, depth+1, "not2 needs one child", decodePred2)
		if err != nil {
			return nil, err
		}
		return expr.Not2{P: inner}, nil
	}
	return nil, corrupt("unknown binary predicate type %d", m.typ)
}

func encodeExpr(e expr.Expr) ([]byte, error) { return encodeSum(e, exprFormOf, exprFields) }

func decodeExpr(c *Codec, p []byte, depth int) (expr.Expr, error) {
	return decodeSum(c, p, depth, "expression nesting too deep", exprFields, exprValue)
}

func exprFormOf(e expr.Expr) (exprForm, error) {
	switch q := e.(type) {
	case expr.Col:
		return exprForm{typ: exprCol, args: []int64{int64(q.I)}}, nil
	case expr.Lit:
		return exprForm{typ: exprLit, args: []int64{q.C}}, nil
	case expr.TS:
		return exprForm{typ: exprTS}, nil
	case expr.Arith:
		l, err := encodeExpr(q.L)
		if err != nil {
			return exprForm{}, err
		}
		r, err := encodeExpr(q.R)
		return exprForm{typ: exprArith, args: []int64{int64(q.Op)}, l: l, r: r}, err
	}
	return exprForm{}, fmt.Errorf("wire: unserializable expression type %T", e)
}

func exprValue(c *Codec, m *exprForm, depth int) (expr.Expr, error) {
	var arg int64
	if n := len(m.args); n > 0 {
		arg = m.args[n-1]
	}
	switch m.typ {
	case exprCol:
		return expr.Col{I: int(arg)}, nil
	case exprLit:
		return expr.Lit{C: arg}, nil
	case exprTS:
		return expr.TS{}, nil
	case exprArith:
		if m.l == nil || m.r == nil {
			return nil, corrupt("arith: missing operands")
		}
		le, err := decodeExpr(c, m.l, depth+1)
		if err != nil {
			return nil, err
		}
		re, err := decodeExpr(c, m.r, depth+1)
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: expr.ArithOp(arg), L: le, R: re}, nil
	}
	return nil, corrupt("unknown expression type %d", m.typ)
}

// The fields of a definition that hold a predicate or an expression; each
// starts at depth 0.
var (
	predConv  = Conv[expr.Pred]{encodePred, func(c *Codec, p []byte) (expr.Pred, error) { return decodePred(c, p, 0) }}
	pred2Conv = Conv[expr.Pred2]{encodePred2, func(c *Codec, p []byte) (expr.Pred2, error) { return decodePred2(c, p, 0) }}
	exprConv  = Conv[expr.Expr]{encodeExpr, func(c *Codec, p []byte) (expr.Expr, error) { return decodeExpr(c, p, 0) }}
)

func schemaMapFields(c *Codec, m *expr.SchemaMap) {
	NestedList(c, 1, &m.Cols, &exprConv)
}

// ---------------------------------------------------------------------------
// Operator definitions and logical trees
// ---------------------------------------------------------------------------

func defFields(c *Codec, d *core.Def) {
	Varint(c, 1, &d.Kind)
	Nested(c, 2, &d.Pred, &predConv)
	Ptr(c, 3, &d.Map, schemaMapFields)
	Varint(c, 4, &d.Agg)
	Varint(c, 5, &d.AggAttr)
	c.Ints(6|OmitEmpty, &d.GroupBy)
	Nested(c, 7, &d.Pred2, &pred2Conv)
	Nested(c, 8, &d.Filter2, &pred2Conv)
	Varint(c, 9, &d.Window)
}

func logicalFields(c *Codec, l *core.Logical) {
	Ptr(c, 1, &l.Def, defFields)
	c.String(2|OmitEmpty, &l.Source)
	Tree(c, 3, &l.Children, logicalFields, "logical tree too deep")
	c.Check(func() error {
		if l.Def == nil {
			return corrupt("logical node without definition")
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Plan snapshot
// ---------------------------------------------------------------------------

func planFields(c *Codec, s *core.PlanSnapshot) {
	c.Init(func() { s.OutStream = make(map[int]int) })
	if c.dec && c.f >= 0 && c.wt != wtBytes {
		return // every plan field is a message; a decoder skips any other
	}
	Msgs(c, 1, &s.Sources, SourceFields)
	Msgs(c, 2, &s.Streams, streamFields)
	Msgs(c, 3, &s.Ops, opFields)
	Msgs(c, 4, &s.Nodes, nodeFields)
	Msgs(c, 5, &s.Edges, edgeFields)
	Msgs(c, 6, &s.Queries, queryFields)
	Map(c, 7, &s.OutStream, func(c *Codec, qid, sid *int) {
		Varint(c, 1, qid)
		Varint(c, 2, sid)
	})
	Msg(c, 8, s, counterFields)
}

func schemaFields(c *Codec, s *core.SchemaSnap) {
	c.Init(func() { *s = core.SchemaSnap{} })
	c.String(1, &s.Name)
	c.Strings(2, &s.Attrs)
}

// SourceFields declares one source of a plan's source table: a plan
// snapshot's, and a cluster churn call's.
func SourceFields(c *Codec, src *core.SourceSnap) {
	c.String(1, &src.Name)
	c.String(2|OmitEmpty, &src.Label)
	Msg(c, 3, &src.Schema, schemaFields)
}

func streamFields(c *Codec, ss *core.StreamSnap) {
	c.Init(func() { ss.Producer = -1 })
	Varint(c, 1, &ss.ID)
	Msg(c, 2, &ss.Schema, schemaFields)
	Varint(c, 3, &ss.Producer)
	c.String(4|OmitEmpty, &ss.Source)
	c.String(5|OmitEmpty, &ss.ShareClass)
	c.Bool(6, &ss.Dead)
}

func opFields(c *Codec, os *core.OpSnap) {
	c.Init(func() { os.Out = -1 })
	Varint(c, 1, &os.ID)
	Varint(c, 2, &os.QueryID)
	Ptr(c, 3, &os.Def, defFields)
	c.Ints(4, &os.In)
	Varint(c, 5, &os.Out)
	Varint(c, 6, &os.Node)
	c.Check(func() error {
		if os.Def == nil {
			return corrupt("op %d without definition", os.ID)
		}
		return nil
	})
}

func nodeFields(c *Codec, ns *core.NodeSnap) {
	Varint(c, 1, &ns.ID)
	Varint(c, 2, &ns.Kind)
	c.Ints(3, &ns.Ops)
}

func edgeFields(c *Codec, es *core.EdgeSnap) {
	Varint(c, 1, &es.ID)
	c.Ints(2, &es.Streams)
}

func queryFields(c *Codec, qs *core.QuerySnap) {
	Varint(c, 1, &qs.ID)
	c.String(2, &qs.Name)
	Ptr(c, 3, &qs.Root, logicalFields)
	c.Check(func() error {
		if qs.Root == nil {
			return corrupt("query %d without a logical tree", qs.ID)
		}
		return nil
	})
}

// counterFields declares the plan's ID counters, a message of their own.
func counterFields(c *Codec, s *core.PlanSnapshot) {
	Varint(c, 1, &s.NextStream)
	Varint(c, 2, &s.NextOp)
	Varint(c, 3, &s.NextNode)
	Varint(c, 4, &s.NextEdge)
	Varint(c, 5, &s.NextQuery)
}

// EncodePlanBytes serializes a plan snapshot.
func EncodePlanBytes(s *core.PlanSnapshot) ([]byte, error) { return Marshal(s, planFields) }

// DecodePlanBytes deserializes a plan snapshot.
func DecodePlanBytes(p []byte) (*core.PlanSnapshot, error) {
	s := &core.PlanSnapshot{}
	if err := Unmarshal(p, s, planFields); err != nil {
		return nil, err
	}
	return s, nil
}

// FingerprintPlan returns the fingerprint of p: the 64-bit FNV-1a hash of
// its snapshot's encoding (EncodePlanBytes). Live maintenance is
// deterministic in the encoded plan, so two replicas that replay the same
// churn on equal plans reach equal fingerprints.
func FingerprintPlan(p *core.Physical) (uint64, error) {
	planBytes, err := EncodePlanBytes(p.Snapshot())
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	_, _ = h.Write(planBytes) // a hash.Hash never fails a Write
	return h.Sum64(), nil
}

// ---------------------------------------------------------------------------
// Partition plan
// ---------------------------------------------------------------------------

func partitionFields(c *Codec, p *core.PartitionPlan) {
	c.Init(func() {
		p.Routes = make(map[string]core.SourceRoute)
		p.ReplicatedSinks = make(map[int]bool)
	})
	Map(c, 1, &p.Routes, routeFields)
	intSet(c, 2|OmitEmpty, &p.ReplicatedSinks)
	c.Bool(3, &p.Parallel)
	Ptr(c, 4, &p.Table, tableFields)
}

func routeFields(c *Codec, name *string, rt *core.SourceRoute) {
	c.String(1, name)
	Varint(c, 2, &rt.Mode)
	Varint(c, 3, &rt.Attr)
	Map(c, 4, &rt.Table, func(c *Codec, key *int64, dests *[]int64) {
		Varint(c, 1, key)
		c.Int64s(2, dests)
	})
	c.Int64s(5|OmitEmpty, &rt.Always)
}

func tableFields(c *Codec, t *core.RoutingTable) {
	Varint(c, 1, &t.Version)
	Map(c, 2, &t.Moves, func(c *Codec, key *int64, dests *[]int) {
		Varint(c, 1, key)
		c.Ints(2, dests)
	})
}

// intSet declares a set of ints as the packed list of its members in
// ascending order. A decoder adds each member of the list to *set.
func intSet(c *Codec, field int, set *map[int]bool) {
	var ids []int
	if !c.dec {
		ids = slices.Sorted(maps.Keys(*set))
	}
	c.Ints(field, &ids)
	if c.dec {
		for _, id := range ids {
			(*set)[id] = true
		}
	}
}

// EncodePartitionBytes serializes a partition plan; nil encodes as no
// bytes.
func EncodePartitionBytes(p *core.PartitionPlan) ([]byte, error) {
	if p == nil {
		return nil, nil
	}
	return Marshal(p, partitionFields)
}

// DecodePartitionBytes deserializes a partition plan; empty input yields
// nil (no partition plan recorded).
func DecodePartitionBytes(p []byte) (*core.PartitionPlan, error) {
	if len(p) == 0 {
		return nil, nil
	}
	out := &core.PartitionPlan{}
	if err := Unmarshal(p, out, partitionFields); err != nil {
		return nil, err
	}
	return out, nil
}
