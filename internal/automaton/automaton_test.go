package automaton_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

func schemas() map[string]*stream.Schema {
	return map[string]*stream.Schema{
		"S": stream.MustSchema("S", "a", "b"),
		"T": stream.MustSchema("T", "a", "b"),
	}
}

func seqQuery(c1, c3 int64, w int64) *automaton.Query {
	return &automaton.Query{
		Name: "w1",
		Stages: []automaton.Stage{
			{Kind: automaton.StageStart, Input: "S",
				StartPred: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c1}},
			{Kind: automaton.StageSeq, Input: "T", Window: w,
				Pred: expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c3}})},
		},
	}
}

func TestValidate(t *testing.T) {
	bad := &automaton.Query{Name: "b"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty query should fail")
	}
	bad2 := &automaton.Query{Name: "b2", Stages: []automaton.Stage{
		{Kind: automaton.StageSeq, Input: "S", Pred: expr.True2{}},
	}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("non-start first stage should fail")
	}
	bad3 := &automaton.Query{Name: "b3", Stages: []automaton.Stage{
		{Kind: automaton.StageStart, Input: "S"},
		{Kind: automaton.StageSeq, Input: "T"}, // no predicate
	}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("missing edge predicate should fail")
	}
	bad4 := &automaton.Query{Name: "b4", Stages: []automaton.Stage{
		{Kind: automaton.StageStart, Input: "S"},
		{Kind: automaton.StageStart, Input: "T"},
	}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("second start stage should fail")
	}
}

func TestUnknownStream(t *testing.T) {
	e := automaton.NewEngine(schemas())
	q := &automaton.Query{Name: "q", Stages: []automaton.Stage{
		{Kind: automaton.StageStart, Input: "NOPE"},
	}}
	if _, err := e.AddQuery(q); err == nil {
		t.Fatal("unknown stream should error")
	}
}

func TestSeqMatchAndDelete(t *testing.T) {
	e := automaton.NewEngine(schemas())
	id, err := e.AddQuery(seqQuery(1, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	e.Process("S", stream.NewTuple(0, 1, 10)) // admitted
	e.Process("S", stream.NewTuple(1, 9, 10)) // not admitted
	e.Process("T", stream.NewTuple(2, 2, 20)) // matches, instance deleted
	e.Process("T", stream.NewTuple(3, 2, 30)) // state empty
	if e.ResultCount(id) != 1 {
		t.Fatalf("results = %d, want 1", e.ResultCount(id))
	}
}

func TestSeqWindowExpiry(t *testing.T) {
	e := automaton.NewEngine(schemas())
	id, err := e.AddQuery(seqQuery(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	e.Process("S", stream.NewTuple(0, 1, 10))
	e.Process("T", stream.NewTuple(10, 2, 20)) // expired
	if e.ResultCount(id) != 0 {
		t.Fatalf("results = %d, want 0", e.ResultCount(id))
	}
}

func TestPrefixStateMerging(t *testing.T) {
	e := automaton.NewEngine(schemas())
	// Same start predicate, different second-stage constants: the start
	// edge is shared, the second stages diverge (Figure 7).
	if _, err := e.AddQuery(seqQuery(1, 2, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddQuery(seqQuery(1, 3, 100)); err != nil {
		t.Fatal(err)
	}
	// Identical query: everything shared, result attributed to both.
	id3, err := e.AddQuery(seqQuery(1, 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.StartEdges != 1 {
		t.Fatalf("start edges = %d, want 1 (shared prefix)", st.StartEdges)
	}
	if st.States != 2 {
		t.Fatalf("states = %d, want 2", st.States)
	}
	e.Process("S", stream.NewTuple(0, 1, 10))
	e.Process("T", stream.NewTuple(1, 2, 20))
	if e.ResultCount(0) != 1 || e.ResultCount(id3) != 1 {
		t.Fatalf("shared final state must attribute to both queries: %d, %d",
			e.ResultCount(0), e.ResultCount(id3))
	}
	if e.ResultCount(1) != 0 {
		t.Fatal("query with constant 3 must not fire")
	}
	if e.TotalResults() != 2 {
		t.Fatalf("total = %d", e.TotalResults())
	}
	if e.ResultCount(-1) != 0 || e.ResultCount(99) != 0 {
		t.Fatal("out-of-range query IDs should count 0")
	}
}

func TestMuMonotone(t *testing.T) {
	e := automaton.NewEngine(schemas())
	rebind := expr.NewAnd2(
		expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}, // last.a == T.a
		expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, // last.b < T.b
	)
	filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}}
	q := &automaton.Query{Name: "mu", Stages: []automaton.Stage{
		{Kind: automaton.StageStart, Input: "S",
			StartPred: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}},
		{Kind: automaton.StageMu, Input: "T", Window: 100, Pred: rebind, Filter: filter},
	}}
	id, err := e.AddQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	e.OnResult = func(_ int, tu *stream.Tuple) { got = append(got, tu.ContentKey()) }
	e.Process("S", stream.NewTuple(0, 1, 10))
	e.Process("T", stream.NewTuple(1, 1, 20)) // extend
	e.Process("T", stream.NewTuple(2, 2, 99)) // other key: filter keeps
	e.Process("T", stream.NewTuple(3, 1, 30)) // extend
	e.Process("T", stream.NewTuple(4, 1, 25)) // dies
	e.Process("T", stream.NewTuple(5, 1, 40)) // nothing
	want := []string{"@1|1,10,1,20", "@3|1,10,1,30"}
	if e.ResultCount(id) != 2 || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v (count %d), want %v", got, e.ResultCount(id), want)
	}
}

func TestToLogicalTranslation(t *testing.T) {
	q := seqQuery(1, 2, 50)
	l, err := q.ToLogical()
	if err != nil {
		t.Fatal(err)
	}
	if l.Def.Kind != core.KindSeq {
		t.Fatalf("root kind = %s", l.Def.Kind)
	}
	if l.Children[0].Def.Kind != core.KindSelect {
		t.Fatalf("left child kind = %s", l.Children[0].Def.Kind)
	}
	bad := &automaton.Query{Name: "b"}
	if _, err := bad.ToLogical(); err == nil {
		t.Fatal("invalid automaton must not translate")
	}
}

// TestTranslationParity is the §4.2/§4.3 claim: a set of automata run by
// the Cayuga engine and the same automata translated to RUMOR query plans
// (then optimized) produce identical per-query results.
func TestTranslationParity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		var qs []*automaton.Query
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				qs = append(qs, seqQuery(int64(r.Intn(4)), int64(r.Intn(4)), int64(3+r.Intn(10))))
			case 1:
				qs = append(qs, &automaton.Query{
					Name: fmt.Sprintf("eq%d", i),
					Stages: []automaton.Stage{
						{Kind: automaton.StageStart, Input: "S"},
						{Kind: automaton.StageSeq, Input: "T", Window: int64(3 + r.Intn(10)),
							Pred: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}},
					},
				})
			default:
				rebind := expr.NewAnd2(
					expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0},
					expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1},
				)
				filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}}
				qs = append(qs, &automaton.Query{
					Name: fmt.Sprintf("mu%d", i),
					Stages: []automaton.Stage{
						{Kind: automaton.StageStart, Input: "S",
							StartPred: expr.ConstCmp{Attr: 1, Op: expr.Lt, C: int64(2 + r.Intn(4))}},
						{Kind: automaton.StageMu, Input: "T", Window: int64(5 + r.Intn(20)),
							Pred: rebind, Filter: filter},
					},
				})
			}
		}

		// Cayuga engine.
		aut := automaton.NewEngine(schemas())
		autIDs := make([]int, len(qs))
		autRes := map[int][]string{}
		aut.OnResult = func(q int, tu *stream.Tuple) { autRes[q] = append(autRes[q], tu.ContentKey()) }
		for i, q := range qs {
			id, err := aut.AddQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			autIDs[i] = id
		}

		// RUMOR plan.
		catalog := map[string]core.SourceDecl{
			"S": {Schema: stream.MustSchema("S", "a", "b")},
			"T": {Schema: stream.MustSchema("T", "a", "b")},
		}
		p := core.NewPhysical(catalog)
		var rq []*core.Query
		for _, q := range qs {
			l, err := q.ToLogical()
			if err != nil {
				t.Fatal(err)
			}
			cq := core.NewQuery(q.Name, l)
			if err := p.AddQuery(cq); err != nil {
				t.Fatal(err)
			}
			rq = append(rq, cq)
		}
		if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		rumorRes := map[int][]string{}
		eng.OnResult = func(q int, tu *stream.Tuple) { rumorRes[q] = append(rumorRes[q], tu.ContentKey()) }

		// Identical interleaved feed.
		feedR := rand.New(rand.NewSource(seed + 1000))
		for ts := 0; ts < 150; ts++ {
			src := "S"
			if ts%2 == 1 {
				src = "T"
			}
			tu := stream.NewTuple(int64(ts), int64(feedR.Intn(4)), int64(feedR.Intn(6)))
			aut.Process(src, tu)
			if err := eng.Push(src, tu); err != nil {
				t.Fatal(err)
			}
		}

		for i := range qs {
			a := autRes[autIDs[i]]
			b := rumorRes[rq[i].ID]
			sort.Strings(a)
			sort.Strings(b)
			if len(a) != len(b) {
				t.Fatalf("seed %d query %d (%s): automaton %d results, RUMOR %d\naut: %v\nrum: %v",
					seed, i, qs[i].Name, len(a), len(b), a, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("seed %d query %d result %d: %q vs %q", seed, i, j, a[j], b[j])
				}
			}
		}
	}
}
