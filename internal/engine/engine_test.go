package engine_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/stream"
)

func catalog() map[string]core.SourceDecl {
	return map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", "a", "b")},
		"T": {Schema: stream.MustSchema("T", "a", "b")},
	}
}

// results runs the engine over the feed and returns sorted content keys
// per query.
func results(t *testing.T, p *core.Physical, feed func(e *engine.Engine)) map[int][]string {
	t.Helper()
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]string{}
	e.OnResult = func(q int, tu *stream.Tuple) { got[q] = append(got[q], tu.ContentKey()) }
	feed(e)
	for q := range got {
		sort.Strings(got[q])
	}
	return got
}

func TestSelectPipeline(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 5}, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		for i := int64(0); i < 10; i++ {
			if err := e.Push("S", stream.NewTuple(i, i, 100)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(got[q.ID]) != 4 { // 6,7,8,9
		t.Fatalf("got %v", got[q.ID])
	}
}

func TestProjectPipeline(t *testing.T) {
	p := core.NewPhysical(catalog())
	m := &expr.SchemaMap{Cols: []expr.Expr{expr.Col{I: 1}, expr.Arith{Op: expr.Add, L: expr.Col{I: 0}, R: expr.Lit{C: 1}}}}
	q := core.NewQuery("q", core.ProjectL(m, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(1, 10, 20))
	})
	want := "@1|20,11"
	if len(got[q.ID]) != 1 || got[q.ID][0] != want {
		t.Fatalf("got %v, want [%s]", got[q.ID], want)
	}
}

func TestAggPipeline(t *testing.T) {
	p := core.NewPhysical(catalog())
	// avg(b) over window 3 grouped by a.
	q := core.NewQuery("q", core.AggL(core.AggAvg, 1, 3, []int{0}, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 7, 10))
		e.Push("S", stream.NewTuple(1, 7, 20)) // avg {10,20} = 15
		e.Push("S", stream.NewTuple(2, 8, 99)) // group 8
		e.Push("S", stream.NewTuple(3, 7, 30)) // window drops ts=0: avg {20,30} = 25
	})
	want := []string{"@0|7,10", "@1|7,15", "@2|8,99", "@3|7,25"}
	sort.Strings(want)
	if len(got[q.ID]) != 4 {
		t.Fatalf("got %v", got[q.ID])
	}
	for i, w := range want {
		if got[q.ID][i] != w {
			t.Fatalf("got %v, want %v", got[q.ID], want)
		}
	}
}

func TestJoinPipeline(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	q := core.NewQuery("q", core.JoinL(pred, 5, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 1, 10))
		e.Push("T", stream.NewTuple(1, 1, 20)) // match (1,10)x(1,20)
		e.Push("T", stream.NewTuple(2, 2, 30)) // no S partner
		e.Push("S", stream.NewTuple(3, 2, 40)) // match with T@2
		e.Push("T", stream.NewTuple(9, 1, 50)) // S@0 expired (age 9 > 5)
	})
	want := []string{"@1|1,10,1,20", "@3|2,40,2,30"}
	if len(got[q.ID]) != 2 || got[q.ID][0] != want[0] || got[q.ID][1] != want[1] {
		t.Fatalf("got %v, want %v", got[q.ID], want)
	}
}

func TestSeqPipelineMatchDeletes(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	q := core.NewQuery("q", core.SeqL(pred, 100, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 1, 10))
		e.Push("T", stream.NewTuple(1, 1, 20)) // match, deletes the S tuple
		e.Push("T", stream.NewTuple(2, 1, 30)) // state empty: no match
	})
	if len(got[q.ID]) != 1 || got[q.ID][0] != "@1|1,10,1,20" {
		t.Fatalf("got %v", got[q.ID])
	}
}

func TestSeqWindowExpiry(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SeqL(expr.True2{}, 3, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 1, 1))
		e.Push("T", stream.NewTuple(10, 2, 2)) // expired
	})
	if len(got[q.ID]) != 0 {
		t.Fatalf("expected no results, got %v", got[q.ID])
	}
}

func TestMuPipelineMonotoneSequence(t *testing.T) {
	p := core.NewPhysical(catalog())
	// Instance per S tuple keyed on a; extend while T.b exceeds last.b.
	// State tuple = start(a,b) ++ last(a,b): last.b is index 3.
	rebind := expr.NewAnd2(
		expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}, // last.a == T.a (same key)
		expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, // last.b < T.b
	)
	filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}} // other keys don't kill
	q := core.NewQuery("q", core.MuL(rebind, filter, 100, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := results(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 1, 10)) // instance key 1, last.b=10
		e.Push("T", stream.NewTuple(1, 1, 20)) // extend: emit, last.b=20
		e.Push("T", stream.NewTuple(2, 2, 99)) // other key: filter keeps
		e.Push("T", stream.NewTuple(3, 1, 30)) // extend: emit, last.b=30
		e.Push("T", stream.NewTuple(4, 1, 25)) // non-monotone same key: instance dies
		e.Push("T", stream.NewTuple(5, 1, 40)) // gone: nothing
	})
	want := []string{"@1|1,10,1,20", "@3|1,10,1,30"}
	if len(got[q.ID]) != 2 || got[q.ID][0] != want[0] || got[q.ID][1] != want[1] {
		t.Fatalf("got %v, want %v", got[q.ID], want)
	}
}

func TestPushUnknownSource(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SelectL(expr.True{}, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Push("NOPE", stream.NewTuple(0, 1, 2)); err == nil {
		t.Fatal("unknown source should error")
	}
}

func TestCountsAndReset(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SelectL(expr.True{}, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Push("S", stream.NewTuple(int64(i), 1, 2))
	}
	if e.ResultCount(q.ID) != 5 || e.TotalResults() != 5 {
		t.Fatalf("counts wrong: %d", e.ResultCount(q.ID))
	}
	e.ResetCounts()
	if e.TotalResults() != 0 {
		t.Fatal("ResetCounts failed")
	}
}

func TestMultipleQueriesIndependentCounts(t *testing.T) {
	p := core.NewPhysical(catalog())
	q1 := core.NewQuery("q1", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, core.Scan("S")))
	q2 := core.NewQuery("q2", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 2}, core.Scan("S")))
	if err := p.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S", stream.NewTuple(0, 1, 0))
	e.Push("S", stream.NewTuple(1, 2, 0))
	e.Push("S", stream.NewTuple(2, 2, 0))
	if e.ResultCount(q1.ID) != 1 || e.ResultCount(q2.ID) != 2 {
		t.Fatalf("counts: q1=%d q2=%d", e.ResultCount(q1.ID), e.ResultCount(q2.ID))
	}
}

func TestNodeStats(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 5}, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		e.Push("S", stream.NewTuple(i, i, 0))
	}
	stats := e.NodeStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Processed != 10 || stats[0].Emitted != 4 {
		t.Fatalf("processed=%d emitted=%d, want 10/4", stats[0].Processed, stats[0].Emitted)
	}
}
