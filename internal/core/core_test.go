package core

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stream"
)

func testCatalog() map[string]SourceDecl {
	return map[string]SourceDecl{
		"S":  {Schema: stream.MustSchema("S", "a0", "a1"), Label: ""},
		"T":  {Schema: stream.MustSchema("T", "a0", "a1"), Label: ""},
		"S1": {Schema: stream.MustSchema("S1", "a0", "a1"), Label: "sh"},
		"S2": {Schema: stream.MustSchema("S2", "a0", "a1"), Label: "sh"},
	}
}

func TestOpKindStringsAndArity(t *testing.T) {
	if KindSeq.String() != "seq" || KindMu.String() != "mu" || OpKind(99).String() == "" {
		t.Fatal("OpKind.String broken")
	}
	if KindSource.Arity() != 0 || KindSelect.Arity() != 1 || KindJoin.Arity() != 2 {
		t.Fatal("arity wrong")
	}
	if AggAvg.String() != "avg" || AggFn(99).String() == "" {
		t.Fatal("AggFn.String broken")
	}
}

func TestDefKeys(t *testing.T) {
	s1 := SelectDef(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 5})
	s2 := SelectDef(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 5})
	s3 := SelectDef(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 6})
	if s1.Key() != s2.Key() || s1.Key() == s3.Key() {
		t.Fatal("select keys wrong")
	}

	j1 := JoinDef(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, 100)
	j2 := JoinDef(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, 200)
	if j1.Key() == j2.Key() {
		t.Fatal("window must be part of full key")
	}
	if j1.KeyModuloWindow() != j2.KeyModuloWindow() {
		t.Fatal("KeyModuloWindow must ignore windows")
	}

	a1 := AggDef(AggAvg, 1, 60, 0)
	a2 := AggDef(AggAvg, 1, 60, 0)
	a3 := AggDef(AggSum, 1, 60, 0)
	if a1.Key() != a2.Key() || a1.Key() == a3.Key() {
		t.Fatal("agg keys wrong")
	}

	m1 := MuDef(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, expr.True2{}, 10)
	m2 := MuDef(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, expr.False2{}, 10)
	if m1.Key() == m2.Key() {
		t.Fatal("mu filter must be part of key")
	}
}

func TestLogicalValidate(t *testing.T) {
	good := SelectL(expr.True{}, Scan("S"))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Logical{Def: SelectDef(expr.True{})} // missing child
	if err := bad.Validate(); err == nil {
		t.Fatal("missing child should fail validation")
	}
	noname := &Logical{Def: &Def{Kind: KindSource}}
	if err := noname.Validate(); err == nil {
		t.Fatal("empty source name should fail")
	}
}

func TestAddQueryBuildsNaivePlan(t *testing.T) {
	p := NewPhysical(testCatalog())
	q := NewQuery("q0", SeqL(expr.Duration{W: 10}, 10,
		SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 5}, Scan("S")),
		Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	// Nodes: source S, source T, select, seq.
	if st.Nodes != 4 || st.Ops != 4 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Channels != 0 {
		t.Fatal("naive plan must have no channels")
	}
	out := p.OutputOf(q.ID)
	if out == nil || out.Schema.Arity() != 4 {
		t.Fatalf("output schema wrong: %+v", out)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.OutputQueries(out); len(got) != 1 || got[0] != q.ID {
		t.Fatalf("OutputQueries = %v", got)
	}
	if p.String() == "" {
		t.Fatal("String should render")
	}
}

func TestAddQueryUnknownSource(t *testing.T) {
	p := NewPhysical(testCatalog())
	q := NewQuery("bad", SelectL(expr.True{}, Scan("NOPE")))
	if err := p.AddQuery(q); err == nil {
		t.Fatal("unknown source must error")
	}
	if len(p.Queries) != 0 || p.Stats().Nodes != 0 {
		t.Fatal("failed AddQuery must not leak plan state")
	}
}

func TestSourcesShared(t *testing.T) {
	p := NewPhysical(testCatalog())
	for i := 0; i < 3; i++ {
		q := NewQuery("q", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	// One shared source node + 3 select nodes.
	if st := p.Stats(); st.Nodes != 4 {
		t.Fatalf("stats = %+v", st)
	}
	s := p.SourceStream("S")
	if s == nil || len(p.Consumers(s)) != 3 {
		t.Fatal("source stream must have 3 consumers")
	}
	if p.SourceStream("S").Producer.Node == nil {
		t.Fatal("source node missing")
	}
}

func TestShareClasses(t *testing.T) {
	p := NewPhysical(testCatalog())
	// Selections preserve share class (§3.2 special case).
	q1 := NewQuery("q1", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("S1")))
	q2 := NewQuery("q2", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 2}, Scan("S2")))
	// Same aggregate over sharable inputs stays sharable.
	q3 := NewQuery("q3", AggL(AggAvg, 1, 60, []int{0},
		SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("S1"))))
	q4 := NewQuery("q4", AggL(AggAvg, 1, 60, []int{0}, Scan("S2")))
	// Different aggregate breaks sharability.
	q5 := NewQuery("q5", AggL(AggSum, 1, 60, []int{0}, Scan("S1")))
	// Unlabeled sources are not sharable with anything else.
	q6 := NewQuery("q6", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("S")))
	for _, q := range []*Query{q1, q2, q3, q4, q5, q6} {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	cls := func(q *Query) string { return p.OutputOf(q.ID).ShareClass }
	if cls(q1) != cls(q2) {
		t.Fatal("σ over sharable sources must be sharable")
	}
	if cls(q3) != cls(q4) {
		t.Fatal("identical aggregates over sharable streams must be sharable (σ transparent)")
	}
	if cls(q3) == cls(q5) {
		t.Fatal("different aggregate functions must not be sharable")
	}
	if cls(q1) == cls(q6) {
		t.Fatal("unlabeled source must not share with labeled class")
	}
}

func TestMergeNodes(t *testing.T) {
	p := NewPhysical(testCatalog())
	var nodes []*Node
	for i := 0; i < 3; i++ {
		q := NewQuery("q", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, p.OutputOf(q.ID).Producer.Node)
	}
	merged, err := p.MergeNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Ops) != 3 {
		t.Fatalf("merged node has %d ops", len(merged.Ops))
	}
	if st := p.Stats(); st.Nodes != 2 { // source + merged select
		t.Fatalf("stats = %+v", st)
	}
	for _, o := range merged.Ops {
		if o.Node != merged {
			t.Fatal("op node pointer not updated")
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Merging a single node is a no-op.
	same, err := p.MergeNodes([]*Node{merged})
	if err != nil || same != merged {
		t.Fatal("singleton merge should return the node unchanged")
	}
}

func TestMergeNodesErrors(t *testing.T) {
	p := NewPhysical(testCatalog())
	q := NewQuery("q", SelectL(expr.True{}, Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	sel := p.OutputOf(q.ID).Producer.Node
	src := p.SourceStream("S").Producer.Node
	if _, err := p.MergeNodes(nil); err == nil {
		t.Fatal("empty merge should error")
	}
	if _, err := p.MergeNodes([]*Node{sel, src}); err == nil {
		t.Fatal("mixed-kind merge should error")
	}
	ghost := &Node{ID: 999, Kind: KindSelect}
	if _, err := p.MergeNodes([]*Node{sel, ghost}); err == nil {
		t.Fatal("merging unknown node should error")
	}
}

func TestCollapseOps(t *testing.T) {
	p := NewPhysical(testCatalog())
	agg := func() *Logical { return AggL(AggAvg, 1, 60, []int{0}, Scan("S")) }
	q1 := NewQuery("q1", SelectL(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 10}, agg()))
	q2 := NewQuery("q2", SelectL(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 20}, agg()))
	if err := p.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	// Find the two identical agg ops.
	var aggs []*Op
	for _, n := range p.Nodes {
		if n.Kind == KindAgg {
			aggs = append(aggs, n.Ops...)
		}
	}
	if len(aggs) != 2 {
		t.Fatalf("found %d agg ops", len(aggs))
	}
	kept, err := p.CollapseOps(aggs)
	if err != nil {
		t.Fatal(err)
	}
	// Both selections now read the kept op's output.
	if got := len(p.Consumers(kept.Out)); got != 2 {
		t.Fatalf("kept output has %d consumers, want 2", got)
	}
	// One agg node remains.
	n := 0
	for _, nd := range p.Nodes {
		if nd.Kind == KindAgg {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d agg nodes remain", n)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseOpsQueryOutputRemap(t *testing.T) {
	p := NewPhysical(testCatalog())
	mk := func() *Query { return NewQuery("q", AggL(AggAvg, 1, 60, []int{0}, Scan("S"))) }
	q1, q2 := mk(), mk()
	if err := p.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	kept, err := p.CollapseOps([]*Op{p.OutputOf(q1.ID).Producer, p.OutputOf(q2.ID).Producer})
	if err != nil {
		t.Fatal(err)
	}
	if p.OutputOf(q1.ID) != kept.Out || p.OutputOf(q2.ID) != kept.Out {
		t.Fatal("query outputs must be remapped to the kept stream")
	}
	if ids := p.OutputQueries(kept.Out); len(ids) != 2 {
		t.Fatalf("OutputQueries = %v", ids)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseOpsErrors(t *testing.T) {
	p := NewPhysical(testCatalog())
	q1 := NewQuery("q1", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("S")))
	q2 := NewQuery("q2", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 2}, Scan("S")))
	q3 := NewQuery("q3", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("T")))
	for _, q := range []*Query{q1, q2, q3} {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	o1 := p.OutputOf(q1.ID).Producer
	o2 := p.OutputOf(q2.ID).Producer
	o3 := p.OutputOf(q3.ID).Producer
	if _, err := p.CollapseOps(nil); err == nil {
		t.Fatal("empty collapse should error")
	}
	if _, err := p.CollapseOps([]*Op{o1, o2}); err == nil {
		t.Fatal("different defs must not collapse")
	}
	if _, err := p.CollapseOps([]*Op{o1, o3}); err == nil {
		t.Fatal("different inputs must not collapse")
	}
}

func TestEncodeChannel(t *testing.T) {
	p := NewPhysical(testCatalog())
	q1 := NewQuery("q1", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 5}, Scan("S")))
	q2 := NewQuery("q2", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 7}, Scan("S")))
	if err := p.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	s1, s2 := p.OutputOf(q1.ID), p.OutputOf(q2.ID)
	ch, err := p.EncodeChannel([]*StreamRef{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if !ch.IsChannel() || len(ch.Streams) != 2 {
		t.Fatalf("channel wrong: %+v", ch)
	}
	if e, pos := p.EdgeOf(s2); e != ch || pos != 1 {
		t.Fatalf("EdgeOf(s2) = %v,%d", e, pos)
	}
	if st := p.Stats(); st.Channels != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if e, pos := p.EdgeOf(s1); e != ch || pos != 0 {
		t.Fatalf("EdgeOf(s1) = %v,%d", e, pos)
	}
	if e, pos := p.EdgeOf(&StreamRef{ID: 999}); e != nil || pos != -1 {
		t.Fatalf("EdgeOf(unknown) = %v,%d", e, pos)
	}
}

func TestEncodeChannelErrors(t *testing.T) {
	p := NewPhysical(testCatalog())
	q := NewQuery("q", SelectL(expr.True{}, Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	s := p.OutputOf(q.ID)
	if _, err := p.EncodeChannel([]*StreamRef{s}); err == nil {
		t.Fatal("single stream should error")
	}
	orphan := &StreamRef{ID: 12345, Schema: stream.MustSchema("O", "a")}
	if _, err := p.EncodeChannel([]*StreamRef{s, orphan}); err == nil {
		t.Fatal("stream without edge should error")
	}
	// Union-incompatible schemas.
	q2 := NewQuery("q2", AggL(AggCount, 0, 10, nil, Scan("T"))) // arity-1 output
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EncodeChannel([]*StreamRef{s, p.OutputOf(q2.ID)}); err == nil {
		t.Fatal("incompatible schemas should error")
	}
}

func TestProducerNode(t *testing.T) {
	p := NewPhysical(testCatalog())
	q1 := NewQuery("q1", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 5}, Scan("S")))
	q2 := NewQuery("q2", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 7}, Scan("S")))
	if err := p.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	s1, s2 := p.OutputOf(q1.ID), p.OutputOf(q2.ID)
	e1, _ := p.EdgeOf(s1)
	producedBy := func(e *Edge, n *Node) bool {
		for _, s := range e.Streams {
			if s.Producer == nil || s.Producer.Node != n {
				return false
			}
		}
		return true
	}
	if !producedBy(e1, s1.Producer.Node) {
		t.Fatal("single-stream producer wrong")
	}
	// Merge the two select nodes, then channelize: producer is the merged node.
	merged, err := p.MergeNodes([]*Node{s1.Producer.Node, s2.Producer.Node})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.EncodeChannel([]*StreamRef{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if !producedBy(ch, merged) {
		t.Fatal("channel producer should be the merged node")
	}
	// Source edge: producer is the source node.
	se, _ := p.EdgeOf(p.SourceStream("S"))
	if !producedBy(se, p.SourceStream("S").Producer.Node) {
		t.Fatal("source edge producer should be source node")
	}
}

func TestAggSchemaNaming(t *testing.T) {
	p := NewPhysical(testCatalog())
	q := NewQuery("q", AggL(AggAvg, 1, 60, []int{0}, Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	sch := p.OutputOf(q.ID).Schema
	if sch.Arity() != 2 || sch.Attrs[0] != "a0" || sch.Attrs[1] != "a1" {
		t.Fatalf("agg schema = %v", sch.Attrs)
	}
	// Aggregating a group-by attribute renames the value column.
	q2 := NewQuery("q2", AggL(AggSum, 0, 60, []int{0}, Scan("S")))
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	sch2 := p.OutputOf(q2.ID).Schema
	if !strings.HasPrefix(sch2.Attrs[1], "sum_") {
		t.Fatalf("collision rename missing: %v", sch2.Attrs)
	}
	// Out-of-range attributes error.
	bad := NewQuery("bad", AggL(AggSum, 9, 60, nil, Scan("S")))
	if err := p.AddQuery(bad); err == nil {
		t.Fatal("out-of-range agg attr should error")
	}
	bad2 := NewQuery("bad2", AggL(AggSum, 0, 60, []int{9}, Scan("S")))
	if err := p.AddQuery(bad2); err == nil {
		t.Fatal("out-of-range group-by should error")
	}
}

func TestDotExport(t *testing.T) {
	p := NewPhysical(testCatalog())
	q1 := NewQuery("q1", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 5}, Scan("S1")))
	q2 := NewQuery("q2", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 5}, Scan("S2")))
	if err := p.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	dot := p.Dot()
	for _, want := range []string{"digraph rumor", "source S1", "select m-op", "-> q0", "-> q1"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
	// Channelize and confirm the dashed channel edge appears.
	if _, err := p.MergeNodes([]*Node{p.OutputOf(q1.ID).Producer.Node, p.OutputOf(q2.ID).Producer.Node}); err != nil {
		t.Fatal(err)
	}
	srcs := []*Node{p.SourceStream("S1").Producer.Node, p.SourceStream("S2").Producer.Node}
	if _, err := p.MergeNodes(srcs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EncodeChannel([]*StreamRef{p.SourceStream("S1"), p.SourceStream("S2")}); err != nil {
		t.Fatal(err)
	}
	dot = p.Dot()
	if !strings.Contains(dot, "channel ×2") || !strings.Contains(dot, "style=dashed") {
		t.Fatalf("dot output missing channel edge:\n%s", dot)
	}
}
