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
// table. All unions are encoded as {1=type, ...fields} messages.

// ---------------------------------------------------------------------------
// Unary predicates
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

func encodePred(p expr.Pred) ([]byte, error) {
	var b Buffer
	switch q := p.(type) {
	case expr.ConstCmp:
		b.PutVarintField(1, predConstCmp)
		b.PutVarintField(2, int64(q.Attr))
		b.PutVarintField(3, int64(q.Op))
		b.PutVarintField(4, q.C)
	case expr.AttrCmp:
		b.PutVarintField(1, predAttrCmp)
		b.PutVarintField(2, int64(q.A))
		b.PutVarintField(3, int64(q.Op))
		b.PutVarintField(4, int64(q.B))
	case expr.True:
		b.PutVarintField(1, predTrue)
	case expr.False:
		b.PutVarintField(1, predFalse)
	case expr.And:
		b.PutVarintField(1, predAnd)
		for _, part := range q.Parts {
			sub, err := encodePred(part)
			if err != nil {
				return nil, err
			}
			b.PutBytesField(2, sub)
		}
	case expr.Or:
		b.PutVarintField(1, predOr)
		for _, part := range q.Parts {
			sub, err := encodePred(part)
			if err != nil {
				return nil, err
			}
			b.PutBytesField(2, sub)
		}
	case expr.Not:
		b.PutVarintField(1, predNot)
		sub, err := encodePred(q.P)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(2, sub)
	default:
		return nil, fmt.Errorf("wire: unserializable predicate type %T", p)
	}
	return b.Bytes(), nil
}

func decodePred(p []byte, depth int) (expr.Pred, error) {
	if depth > maxDepth {
		return nil, corrupt("predicate nesting too deep")
	}
	typ, ints, subs, err := predFields(p)
	if err != nil {
		return nil, err
	}
	need := func(n int) error {
		if len(ints) < n {
			return corrupt("predicate type %d: missing fields", typ)
		}
		return nil
	}
	switch typ {
	case predConstCmp:
		if err := need(3); err != nil {
			return nil, err
		}
		return expr.ConstCmp{Attr: int(ints[0]), Op: expr.CmpOp(ints[1]), C: ints[2]}, nil
	case predAttrCmp:
		if err := need(3); err != nil {
			return nil, err
		}
		return expr.AttrCmp{A: int(ints[0]), Op: expr.CmpOp(ints[1]), B: int(ints[2])}, nil
	case predTrue:
		return expr.True{}, nil
	case predFalse:
		return expr.False{}, nil
	case predAnd, predOr:
		parts := make([]expr.Pred, 0, len(subs))
		for _, s := range subs {
			part, err := decodePred(s, depth+1)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		if typ == predAnd {
			return expr.And{Parts: parts}, nil
		}
		return expr.Or{Parts: parts}, nil
	case predNot:
		if len(subs) != 1 {
			return nil, corrupt("not-predicate needs one child")
		}
		inner, err := decodePred(subs[0], depth+1)
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	}
	return nil, corrupt("unknown predicate type %d", typ)
}

// predFields reads the field shape both predicate languages share: 1=type,
// then repeated 2, 3 and 4, where 2 is an integer or, as bytes, a nested
// predicate.
func predFields(p []byte) (typ int64, ints []int64, subs [][]byte, err error) {
	r := NewReader(p)
	err = r.Fields(func(f, wt int) (err error) {
		switch {
		case f == 1:
			typ, err = r.Varint()
		case f == 2 && wt != wtVarint:
			var s []byte
			s, err = r.Bytes()
			subs = append(subs, s)
		case f >= 2 && f <= 4:
			var v int64
			v, err = r.Varint()
			ints = append(ints, v)
		}
		return err
	})
	return typ, ints, subs, err
}

// ---------------------------------------------------------------------------
// Binary predicates
// ---------------------------------------------------------------------------

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

func encodePred2(p expr.Pred2) ([]byte, error) {
	var b Buffer
	switch q := p.(type) {
	case expr.AttrCmp2:
		b.PutVarintField(1, pred2AttrCmp)
		b.PutVarintField(2, int64(q.L))
		b.PutVarintField(3, int64(q.Op))
		b.PutVarintField(4, int64(q.R))
	case expr.Left:
		b.PutVarintField(1, pred2Left)
		sub, err := encodePred(q.P)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(2, sub)
	case expr.Right:
		b.PutVarintField(1, pred2Right)
		sub, err := encodePred(q.P)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(2, sub)
	case expr.Duration:
		b.PutVarintField(1, pred2Duration)
		b.PutVarintField(2, q.W)
	case expr.True2:
		b.PutVarintField(1, pred2True)
	case expr.False2:
		b.PutVarintField(1, pred2False)
	case expr.And2:
		b.PutVarintField(1, pred2And)
		for _, part := range q.Parts {
			sub, err := encodePred2(part)
			if err != nil {
				return nil, err
			}
			b.PutBytesField(2, sub)
		}
	case expr.Or2:
		b.PutVarintField(1, pred2Or)
		for _, part := range q.Parts {
			sub, err := encodePred2(part)
			if err != nil {
				return nil, err
			}
			b.PutBytesField(2, sub)
		}
	case expr.Not2:
		b.PutVarintField(1, pred2Not)
		sub, err := encodePred2(q.P)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(2, sub)
	default:
		return nil, fmt.Errorf("wire: unserializable binary predicate type %T", p)
	}
	return b.Bytes(), nil
}

func decodePred2(p []byte, depth int) (expr.Pred2, error) {
	if depth > maxDepth {
		return nil, corrupt("binary predicate nesting too deep")
	}
	typ, ints, subs, err := predFields(p)
	if err != nil {
		return nil, err
	}
	switch typ {
	case pred2AttrCmp:
		if len(ints) < 3 {
			return nil, corrupt("attrcmp2: missing fields")
		}
		return expr.AttrCmp2{L: int(ints[0]), Op: expr.CmpOp(ints[1]), R: int(ints[2])}, nil
	case pred2Left, pred2Right:
		if len(subs) != 1 {
			return nil, corrupt("left/right lift needs one child")
		}
		inner, err := decodePred(subs[0], depth+1)
		if err != nil {
			return nil, err
		}
		if typ == pred2Left {
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
		parts := make([]expr.Pred2, 0, len(subs))
		for _, s := range subs {
			part, err := decodePred2(s, depth+1)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		if typ == pred2And {
			return expr.And2{Parts: parts}, nil
		}
		return expr.Or2{Parts: parts}, nil
	case pred2Not:
		if len(subs) != 1 {
			return nil, corrupt("not2 needs one child")
		}
		inner, err := decodePred2(subs[0], depth+1)
		if err != nil {
			return nil, err
		}
		return expr.Not2{P: inner}, nil
	}
	return nil, corrupt("unknown binary predicate type %d", typ)
}

// ---------------------------------------------------------------------------
// Schema-map expressions
// ---------------------------------------------------------------------------

// Schema-map expression type tags.
//
//rumor:wiretags
const (
	exprCol   = 1
	exprLit   = 2
	exprTS    = 3
	exprArith = 4
)

func encodeExpr(e expr.Expr) ([]byte, error) {
	var b Buffer
	switch q := e.(type) {
	case expr.Col:
		b.PutVarintField(1, exprCol)
		b.PutVarintField(2, int64(q.I))
	case expr.Lit:
		b.PutVarintField(1, exprLit)
		b.PutVarintField(2, q.C)
	case expr.TS:
		b.PutVarintField(1, exprTS)
	case expr.Arith:
		b.PutVarintField(1, exprArith)
		b.PutVarintField(2, int64(q.Op))
		l, err := encodeExpr(q.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(q.R)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(3, l)
		b.PutBytesField(4, r)
	default:
		return nil, fmt.Errorf("wire: unserializable expression type %T", e)
	}
	return b.Bytes(), nil
}

func decodeExpr(p []byte, depth int) (expr.Expr, error) {
	if depth > maxDepth {
		return nil, corrupt("expression nesting too deep")
	}
	r := NewReader(p)
	var typ, arg int64
	var l, rt []byte
	err := r.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			typ, err = r.Varint()
		case 2:
			arg, err = r.Varint()
		case 3:
			l, err = r.Bytes()
		case 4:
			rt, err = r.Bytes()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	switch typ {
	case exprCol:
		return expr.Col{I: int(arg)}, nil
	case exprLit:
		return expr.Lit{C: arg}, nil
	case exprTS:
		return expr.TS{}, nil
	case exprArith:
		if l == nil || rt == nil {
			return nil, corrupt("arith: missing operands")
		}
		le, err := decodeExpr(l, depth+1)
		if err != nil {
			return nil, err
		}
		re, err := decodeExpr(rt, depth+1)
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: expr.ArithOp(arg), L: le, R: re}, nil
	}
	return nil, corrupt("unknown expression type %d", typ)
}

func encodeSchemaMap(m *expr.SchemaMap) ([]byte, error) {
	var b Buffer
	for _, c := range m.Cols {
		sub, err := encodeExpr(c)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(1, sub)
	}
	return b.Bytes(), nil
}

func decodeSchemaMap(p []byte) (*expr.SchemaMap, error) {
	r := NewReader(p)
	m := &expr.SchemaMap{}
	err := r.Fields(func(f, _ int) error {
		if f != 1 {
			return nil
		}
		sub, err := r.Bytes()
		if err != nil {
			return err
		}
		c, err := decodeExpr(sub, 0)
		m.Cols = append(m.Cols, c)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Operator definitions and logical trees
// ---------------------------------------------------------------------------

// def: 1=kind 2=pred 3=map 4=agg 5=aggattr 6=groupby 7=pred2 8=filter2 9=window
func encodeDef(d *core.Def) ([]byte, error) {
	var b Buffer
	b.PutVarintField(1, int64(d.Kind))
	if d.Pred != nil {
		sub, err := encodePred(d.Pred)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(2, sub)
	}
	if d.Map != nil {
		sub, err := encodeSchemaMap(d.Map)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(3, sub)
	}
	b.PutVarintField(4, int64(d.Agg))
	b.PutVarintField(5, int64(d.AggAttr))
	if len(d.GroupBy) > 0 {
		b.PutIntsField(6, d.GroupBy)
	}
	if d.Pred2 != nil {
		sub, err := encodePred2(d.Pred2)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(7, sub)
	}
	if d.Filter2 != nil {
		sub, err := encodePred2(d.Filter2)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(8, sub)
	}
	b.PutVarintField(9, d.Window)
	return b.Bytes(), nil
}

func decodeDef(p []byte) (*core.Def, error) {
	r := NewReader(p)
	d := &core.Def{}
	err := r.Fields(func(f, _ int) (err error) {
		var v int64
		var sub []byte
		switch f {
		case 1:
			v, err = r.Varint()
			d.Kind = core.OpKind(v)
		case 2:
			if sub, err = r.Bytes(); err == nil {
				d.Pred, err = decodePred(sub, 0)
			}
		case 3:
			if sub, err = r.Bytes(); err == nil {
				d.Map, err = decodeSchemaMap(sub)
			}
		case 4:
			v, err = r.Varint()
			d.Agg = core.AggFn(v)
		case 5:
			d.AggAttr, err = r.Int()
		case 6:
			d.GroupBy, err = r.Ints()
		case 7:
			if sub, err = r.Bytes(); err == nil {
				d.Pred2, err = decodePred2(sub, 0)
			}
		case 8:
			if sub, err = r.Bytes(); err == nil {
				d.Filter2, err = decodePred2(sub, 0)
			}
		case 9:
			d.Window, err = r.Varint()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// logical: 1=def 2=source 3=child (repeated)
func encodeLogical(l *core.Logical) ([]byte, error) {
	var b Buffer
	if l.Def != nil {
		sub, err := encodeDef(l.Def)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(1, sub)
	}
	if l.Source != "" {
		b.PutStringField(2, l.Source)
	}
	for _, c := range l.Children {
		sub, err := encodeLogical(c)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(3, sub)
	}
	return b.Bytes(), nil
}

func decodeLogical(p []byte, depth int) (*core.Logical, error) {
	if depth > maxDepth {
		return nil, corrupt("logical tree too deep")
	}
	r := NewReader(p)
	l := &core.Logical{}
	err := r.Fields(func(f, _ int) (err error) {
		var sub []byte
		switch f {
		case 1:
			if sub, err = r.Bytes(); err == nil {
				l.Def, err = decodeDef(sub)
			}
		case 2:
			l.Source, err = r.String()
		case 3:
			if sub, err = r.Bytes(); err == nil {
				var c *core.Logical
				c, err = decodeLogical(sub, depth+1)
				l.Children = append(l.Children, c)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if l.Def == nil {
		return nil, corrupt("logical node without definition")
	}
	return l, nil
}

// ---------------------------------------------------------------------------
// Plan snapshot
// ---------------------------------------------------------------------------

func encodeSchema(s core.SchemaSnap) []byte {
	var b Buffer
	b.PutStringField(1, s.Name)
	for _, a := range s.Attrs {
		b.PutStringField(2, a)
	}
	return b.Bytes()
}

func decodeSchema(p []byte) (core.SchemaSnap, error) {
	r := NewReader(p)
	var s core.SchemaSnap
	err := r.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			s.Name, err = r.String()
		case 2:
			var a string
			a, err = r.String()
			s.Attrs = append(s.Attrs, a)
		}
		return err
	})
	return s, err
}

// EncodePlanBytes serializes a plan snapshot.
//
// plan: 1=source 2=stream 3=op 4=node 5=edge 6=query 7=outstream 8=counters
func EncodePlanBytes(s *core.PlanSnapshot) ([]byte, error) {
	var b Buffer
	for _, src := range s.Sources {
		var sb Buffer
		sb.PutStringField(1, src.Name)
		if src.Label != "" {
			sb.PutStringField(2, src.Label)
		}
		sb.PutBytesField(3, encodeSchema(src.Schema))
		b.PutBytesField(1, sb.Bytes())
	}
	for _, ss := range s.Streams {
		var sb Buffer
		sb.PutVarintField(1, int64(ss.ID))
		sb.PutBytesField(2, encodeSchema(ss.Schema))
		sb.PutVarintField(3, int64(ss.Producer))
		if ss.Source != "" {
			sb.PutStringField(4, ss.Source)
		}
		if ss.ShareClass != "" {
			sb.PutStringField(5, ss.ShareClass)
		}
		sb.PutBoolField(6, ss.Dead)
		b.PutBytesField(2, sb.Bytes())
	}
	for _, os := range s.Ops {
		var sb Buffer
		sb.PutVarintField(1, int64(os.ID))
		sb.PutVarintField(2, int64(os.QueryID))
		def, err := encodeDef(os.Def)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", os.ID, err)
		}
		sb.PutBytesField(3, def)
		sb.PutIntsField(4, os.In)
		sb.PutVarintField(5, int64(os.Out))
		sb.PutVarintField(6, int64(os.Node))
		b.PutBytesField(3, sb.Bytes())
	}
	for _, ns := range s.Nodes {
		var sb Buffer
		sb.PutVarintField(1, int64(ns.ID))
		sb.PutVarintField(2, int64(ns.Kind))
		sb.PutIntsField(3, ns.Ops)
		b.PutBytesField(4, sb.Bytes())
	}
	for _, es := range s.Edges {
		var sb Buffer
		sb.PutVarintField(1, int64(es.ID))
		sb.PutIntsField(2, es.Streams)
		b.PutBytesField(5, sb.Bytes())
	}
	for _, qs := range s.Queries {
		var sb Buffer
		sb.PutVarintField(1, int64(qs.ID))
		sb.PutStringField(2, qs.Name)
		root, err := encodeLogical(qs.Root)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", qs.Name, err)
		}
		sb.PutBytesField(3, root)
		b.PutBytesField(6, sb.Bytes())
	}
	for _, qid := range slices.Sorted(maps.Keys(s.OutStream)) {
		var sb Buffer
		sb.PutVarintField(1, int64(qid))
		sb.PutVarintField(2, int64(s.OutStream[qid]))
		b.PutBytesField(7, sb.Bytes())
	}
	var cb Buffer
	cb.PutVarintField(1, int64(s.NextStream))
	cb.PutVarintField(2, int64(s.NextOp))
	cb.PutVarintField(3, int64(s.NextNode))
	cb.PutVarintField(4, int64(s.NextEdge))
	cb.PutVarintField(5, int64(s.NextQuery))
	b.PutBytesField(8, cb.Bytes())
	return b.Bytes(), nil
}

// FingerprintPlan encodes p's snapshot (EncodePlanBytes) and returns the
// encoding with its fingerprint, the encoding's 64-bit FNV-1a hash. Live
// maintenance is deterministic in the encoded plan, so two replicas that
// replay the same churn on equal plans reach equal fingerprints.
func FingerprintPlan(p *core.Physical) ([]byte, uint64, error) {
	planBytes, err := EncodePlanBytes(p.Snapshot())
	if err != nil {
		return nil, 0, err
	}
	h := fnv.New64a()
	_, _ = h.Write(planBytes) // a hash.Hash never fails a Write
	return planBytes, h.Sum64(), nil
}

// schemaField reads a nested schema message.
func schemaField(r *Reader) (core.SchemaSnap, error) {
	p, err := r.Bytes()
	if err != nil {
		return core.SchemaSnap{}, err
	}
	return decodeSchema(p)
}

// DecodePlanBytes deserializes a plan snapshot.
func DecodePlanBytes(p []byte) (*core.PlanSnapshot, error) {
	r := NewReader(p)
	s := &core.PlanSnapshot{OutStream: make(map[int]int)}
	err := r.Fields(func(f, wt int) error {
		if wt != wtBytes {
			return nil
		}
		sub, err := r.Msg()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			var src core.SourceSnap
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					src.Name, err = sub.String()
				case 2:
					src.Label, err = sub.String()
				case 3:
					src.Schema, err = schemaField(sub)
				}
				return err
			})
			s.Sources = append(s.Sources, src)
		case 2:
			ss := core.StreamSnap{Producer: -1}
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					ss.ID, err = sub.Int()
				case 2:
					ss.Schema, err = schemaField(sub)
				case 3:
					ss.Producer, err = sub.Int()
				case 4:
					ss.Source, err = sub.String()
				case 5:
					ss.ShareClass, err = sub.String()
				case 6:
					var v int64
					v, err = sub.Varint()
					ss.Dead = v != 0
				}
				return err
			})
			s.Streams = append(s.Streams, ss)
		case 3:
			os := core.OpSnap{Out: -1}
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					os.ID, err = sub.Int()
				case 2:
					os.QueryID, err = sub.Int()
				case 3:
					var def []byte
					if def, err = sub.Bytes(); err == nil {
						os.Def, err = decodeDef(def)
					}
				case 4:
					os.In, err = sub.Ints()
				case 5:
					os.Out, err = sub.Int()
				case 6:
					os.Node, err = sub.Int()
				}
				return err
			})
			if err == nil && os.Def == nil {
				err = corrupt("op %d without definition", os.ID)
			}
			s.Ops = append(s.Ops, os)
		case 4:
			var ns core.NodeSnap
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					ns.ID, err = sub.Int()
				case 2:
					var v int64
					v, err = sub.Varint()
					ns.Kind = core.OpKind(v)
				case 3:
					ns.Ops, err = sub.Ints()
				}
				return err
			})
			s.Nodes = append(s.Nodes, ns)
		case 5:
			var es core.EdgeSnap
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					es.ID, err = sub.Int()
				case 2:
					es.Streams, err = sub.Ints()
				}
				return err
			})
			s.Edges = append(s.Edges, es)
		case 6:
			var qs core.QuerySnap
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					qs.ID, err = sub.Int()
				case 2:
					qs.Name, err = sub.String()
				case 3:
					var root []byte
					if root, err = sub.Bytes(); err == nil {
						qs.Root, err = decodeLogical(root, 0)
					}
				}
				return err
			})
			if err == nil && qs.Root == nil {
				err = corrupt("query %d without a logical tree", qs.ID)
			}
			s.Queries = append(s.Queries, qs)
		case 7:
			var qid, sid int
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					qid, err = sub.Int()
				case 2:
					sid, err = sub.Int()
				}
				return err
			})
			s.OutStream[qid] = sid
		case 8:
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					s.NextStream, err = sub.Int()
				case 2:
					s.NextOp, err = sub.Int()
				case 3:
					s.NextNode, err = sub.Int()
				case 4:
					s.NextEdge, err = sub.Int()
				case 5:
					s.NextQuery, err = sub.Int()
				}
				return err
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Partition plan
// ---------------------------------------------------------------------------

// partition: 1=route 2=replicatedSinks 3=parallel 4=table
// route:     1=source 2=mode 3=attr 4=entry{1=key 2=dests} 5=always
// table:     1=version 2=move{1=key 2=dests}
func EncodePartitionBytes(p *core.PartitionPlan) ([]byte, error) {
	var b Buffer
	if p == nil {
		return b.Bytes(), nil
	}
	for _, name := range slices.Sorted(maps.Keys(p.Routes)) {
		rt := p.Routes[name]
		var sb Buffer
		sb.PutStringField(1, name)
		sb.PutVarintField(2, int64(rt.Mode))
		sb.PutVarintField(3, int64(rt.Attr))
		for _, k := range slices.Sorted(maps.Keys(rt.Table)) {
			var eb Buffer
			eb.PutVarintField(1, k)
			eb.PutInt64sField(2, rt.Table[k])
			sb.PutBytesField(4, eb.Bytes())
		}
		if len(rt.Always) > 0 {
			sb.PutInt64sField(5, rt.Always)
		}
		b.PutBytesField(1, sb.Bytes())
	}
	if len(p.ReplicatedSinks) > 0 {
		b.PutIntsField(2, slices.Sorted(maps.Keys(p.ReplicatedSinks)))
	}
	b.PutBoolField(3, p.Parallel)
	if p.Table != nil {
		var tb Buffer
		tb.PutVarintField(1, int64(p.Table.Version))
		for _, k := range slices.Sorted(maps.Keys(p.Table.Moves)) {
			var mb Buffer
			mb.PutVarintField(1, k)
			mb.PutIntsField(2, p.Table.Moves[k])
			tb.PutBytesField(2, mb.Bytes())
		}
		b.PutBytesField(4, tb.Bytes())
	}
	return b.Bytes(), nil
}

// DecodePartitionBytes deserializes a partition plan; empty input yields
// nil (no partition plan recorded).
func DecodePartitionBytes(p []byte) (*core.PartitionPlan, error) {
	if len(p) == 0 {
		return nil, nil
	}
	r := NewReader(p)
	out := &core.PartitionPlan{
		Routes:          make(map[string]core.SourceRoute),
		ReplicatedSinks: make(map[int]bool),
	}
	err := r.Fields(func(f, _ int) error {
		switch f {
		case 1:
			sub, err := r.Msg()
			if err != nil {
				return err
			}
			var name string
			var rt core.SourceRoute
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					name, err = sub.String()
				case 2:
					var v int64
					v, err = sub.Varint()
					rt.Mode = core.PartitionMode(v)
				case 3:
					rt.Attr, err = sub.Int()
				case 4:
					var key int64
					var dests []int64
					if key, dests, err = keyedList(sub, (*Reader).Int64s); err == nil {
						if rt.Table == nil {
							rt.Table = make(map[int64][]int64)
						}
						rt.Table[key] = dests
					}
				case 5:
					rt.Always, err = sub.Int64s()
				}
				return err
			})
			if err != nil {
				return err
			}
			out.Routes[name] = rt
		case 2:
			ids, err := r.Ints()
			if err != nil {
				return err
			}
			for _, id := range ids {
				out.ReplicatedSinks[id] = true
			}
		case 3:
			v, err := r.Varint()
			if err != nil {
				return err
			}
			out.Parallel = v != 0
		case 4:
			sub, err := r.Msg()
			if err != nil {
				return err
			}
			tbl := &core.RoutingTable{}
			err = sub.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					tbl.Version, err = sub.Int()
				case 2:
					var key int64
					var dests []int
					if key, dests, err = keyedList(sub, (*Reader).Ints); err == nil {
						if tbl.Moves == nil {
							tbl.Moves = make(map[int64][]int)
						}
						tbl.Moves[key] = dests
					}
				}
				return err
			})
			if err != nil {
				return err
			}
			out.Table = tbl
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// keyedList reads a nested {1=key 2=packed list} message, the list read
// by list.
func keyedList[T any](r *Reader, list func(*Reader) ([]T, error)) (key int64, vs []T, err error) {
	sub, err := r.Msg()
	if err != nil {
		return 0, nil, err
	}
	err = sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			key, err = sub.Varint()
		case 2:
			vs, err = list(sub)
		}
		return err
	})
	return key, vs, err
}
