package mop_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/automaton"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mop"
	"repro/internal/rules"
	"repro/internal/stream"
)

// withMember gives t the channel membership m: a row that belongs to the
// streams of m's positions.
func withMember(t *stream.Tuple, m *bitset.Set) *stream.Tuple {
	t.Member = m
	return t
}

func catalog() map[string]core.SourceDecl {
	c := map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", "a", "b")},
		"T": {Schema: stream.MustSchema("T", "a", "b")},
	}
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("S%d", i)
		c[name] = core.SourceDecl{Schema: stream.MustSchema(name, "a", "b"), Label: "sh"}
	}
	return c
}

func sorted(m map[int][]string) map[int][]string {
	for k := range m {
		sort.Strings(m[k])
	}
	return m
}

func run(t *testing.T, p *core.Physical, feed func(e *engine.Engine)) map[int][]string {
	t.Helper()
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]string{}
	e.OnResult = func(q int, tu *stream.Tuple) { got[q] = append(got[q], tu.ContentKey()) }
	feed(e)
	return sorted(got)
}

// TestPredicateIndexSelect: many equality selections over one stream merge
// into one predicate-indexed m-op; each query still gets exactly its own
// matches ([10,16]).
func TestPredicateIndexSelect(t *testing.T) {
	p := core.NewPhysical(catalog())
	var qs []*core.Query
	for i := 0; i < 20; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i % 10)}, core.Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	got := run(t, p, func(e *engine.Engine) {
		for ts := int64(0); ts < 30; ts++ {
			e.Push("S", stream.NewTuple(ts, ts%10, ts))
		}
	})
	for i, q := range qs {
		want := 3 // values 0..9 repeat three times over 30 tuples
		if len(got[q.ID]) != want {
			t.Fatalf("query %d got %d results, want %d", i, len(got[q.ID]), want)
		}
	}
}

// TestSelectResidualPredicate: an indexed equality with a non-trivial
// residual conjunct must apply both.
func TestSelectResidualPredicate(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.NewAnd(
		expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 5},
		expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 10},
	)
	q := core.NewQuery("q", core.SelectL(pred, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	got := run(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 5, 11)) // pass
		e.Push("S", stream.NewTuple(1, 5, 9))  // fails residual
		e.Push("S", stream.NewTuple(2, 4, 99)) // fails index
	})
	if len(got[q.ID]) != 1 || got[q.ID][0] != "@0|5,11" {
		t.Fatalf("got %v", got[q.ID])
	}
}

// TestChannelSelectSingleTuple: after channelization, the select m-op must
// emit a single channel tuple regardless of how many operators matched.
// We verify by counting raw edge traffic through a downstream consumer.
func TestChannelSelectMembership(t *testing.T) {
	p := core.NewPhysical(catalog())
	// Identical-definition selections over sharable sources S1, S2: the
	// channelize rule merges sources, encodes the channel, merges selects.
	var qs []*core.Query
	for i := 1; i <= 2; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 3}, core.Scan(fmt.Sprintf("S%d", i))))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Channels < 1 {
		t.Fatalf("expected a channel:\n%s", p.String())
	}
	// A channel tuple belonging to both streams satisfies both queries.
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S1", withMember(stream.NewTuple(0, 7, 7), bitset.FromIndices(0, 1)))
	e.Push("S1", withMember(stream.NewTuple(1, 7, 7), bitset.FromIndices(0)))
	e.Push("S1", withMember(stream.NewTuple(2, 1, 1), bitset.FromIndices(0, 1)))
	if e.ResultCount(qs[0].ID) != 2 || e.ResultCount(qs[1].ID) != 1 {
		t.Fatalf("counts: %d, %d", e.ResultCount(qs[0].ID), e.ResultCount(qs[1].ID))
	}
}

// TestSharedFragmentAggregation (cα, [15]): identical aggregates over a
// channel of sharable streams maintain fragment partials; each operator's
// answer covers exactly the tuples belonging to its stream.
func TestSharedFragmentAggregation(t *testing.T) {
	p := core.NewPhysical(catalog())
	var qs []*core.Query
	for i := 1; i <= 2; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.AggL(core.AggSum, 1, 10, nil, core.Scan(fmt.Sprintf("S%d", i))))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Channels < 1 {
		t.Fatalf("expected channel encoding:\n%s", p.String())
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var res []string
	e.OnResult = func(q int, tu *stream.Tuple) {
		res = append(res, fmt.Sprintf("q%d:%s", q, tu.ContentKey()))
	}
	// ts0: both streams get value 5; ts1: only stream 1 gets value 3.
	e.Push("S1", withMember(stream.NewTuple(0, 1, 5), bitset.FromIndices(0, 1)))
	e.Push("S1", withMember(stream.NewTuple(1, 1, 3), bitset.FromIndices(0)))
	sort.Strings(res)
	want := []string{
		fmt.Sprintf("q%d:@0|5", qs[0].ID),
		fmt.Sprintf("q%d:@0|5", qs[1].ID),
		fmt.Sprintf("q%d:@1|8", qs[0].ID), // 5 + 3
	}
	sort.Strings(want)
	if len(res) != len(want) {
		t.Fatalf("res = %v, want %v", res, want)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res = %v, want %v", res, want)
		}
	}
}

// TestPrecisionSharingJoin (c⨝, [14]): identical joins over channelized
// left inputs evaluate the join once per tuple pair; output membership is
// the intersection of the memberships.
func TestPrecisionSharingJoin(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	var qs []*core.Query
	for i := 1; i <= 2; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.JoinL(pred, 100, core.Scan(fmt.Sprintf("S%d", i)), core.Scan("T")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	nJoin := 0
	for _, n := range p.Nodes {
		if n.Kind == core.KindJoin {
			nJoin++
		}
	}
	if nJoin != 1 {
		t.Fatalf("join nodes = %d, want 1", nJoin)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S1", withMember(stream.NewTuple(0, 9, 1), bitset.FromIndices(0, 1)))
	e.Push("T", stream.NewTuple(1, 9, 2)) // joins for both queries
	e.Push("S1", withMember(stream.NewTuple(2, 8, 1), bitset.FromIndices(1)))
	e.Push("T", stream.NewTuple(3, 8, 2)) // joins only for q2
	if e.ResultCount(qs[0].ID) != 1 || e.ResultCount(qs[1].ID) != 2 {
		t.Fatalf("counts: %d, %d", e.ResultCount(qs[0].ID), e.ResultCount(qs[1].ID))
	}
}

// TestSharedWindowJoin (s⨝, [12]): joins sharing state must still respect
// their individual windows.
func TestSharedWindowJoin(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	qSmall := core.NewQuery("small", core.JoinL(pred, 2, core.Scan("S"), core.Scan("T")))
	qLarge := core.NewQuery("large", core.JoinL(pred, 10, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(qSmall); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(qLarge); err != nil {
		t.Fatal(err)
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	nJoin := 0
	for _, n := range p.Nodes {
		if n.Kind == core.KindJoin {
			nJoin++
		}
	}
	if nJoin != 1 {
		t.Fatalf("join nodes = %d, want 1 (shared state)", nJoin)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S", stream.NewTuple(0, 1, 0))
	e.Push("T", stream.NewTuple(5, 1, 0)) // age 5: only the 10-window query
	if e.ResultCount(qSmall.ID) != 0 || e.ResultCount(qLarge.ID) != 1 {
		t.Fatalf("counts: small=%d large=%d", e.ResultCount(qSmall.ID), e.ResultCount(qLarge.ID))
	}
	e.Push("S", stream.NewTuple(10, 2, 0))
	e.Push("T", stream.NewTuple(11, 2, 0)) // age 1: both
	if e.ResultCount(qSmall.ID) != 1 || e.ResultCount(qLarge.ID) != 2 {
		t.Fatalf("counts after 2nd: small=%d large=%d", e.ResultCount(qSmall.ID), e.ResultCount(qLarge.ID))
	}
}

// TestSharedSeqWindows: ; operators identical up to their windows share
// instance state inside one m-op and filter emissions per window.
func TestSharedSeqWindows(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	qSmall := core.NewQuery("small", core.SeqL(pred, 2, core.Scan("S"), core.Scan("T")))
	qLarge := core.NewQuery("large", core.SeqL(pred, 10, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(qSmall); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(qLarge); err != nil {
		t.Fatal(err)
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S", stream.NewTuple(0, 1, 0))
	e.Push("T", stream.NewTuple(5, 1, 0)) // only large window fires; state deleted
	e.Push("T", stream.NewTuple(6, 1, 0)) // nothing: deleted on match
	if e.ResultCount(qSmall.ID) != 0 || e.ResultCount(qLarge.ID) != 1 {
		t.Fatalf("counts: small=%d large=%d", e.ResultCount(qSmall.ID), e.ResultCount(qLarge.ID))
	}
}

// TestChannelSeq (c;, §4.4): one channel tuple carrying n memberships
// creates one shared instance; a matching right tuple produces results for
// exactly the member queries.
func TestChannelSeq(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	var qs []*core.Query
	for i := 1; i <= 4; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.SeqL(pred, 100, core.Scan(fmt.Sprintf("S%d", i)), core.Scan("T")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Tuple belongs to streams 0 and 2 only.
	e.Push("S1", withMember(stream.NewTuple(0, 5, 0), bitset.FromIndices(0, 2)))
	e.Push("T", stream.NewTuple(1, 5, 0))
	want := []int64{1, 0, 1, 0}
	for i, q := range qs {
		if e.ResultCount(q.ID) != want[i] {
			t.Fatalf("query %d count = %d, want %d", i, e.ResultCount(q.ID), want[i])
		}
	}
}

// TestAggMinMax exercises the multiset-based extremum maintenance.
func TestAggMinMax(t *testing.T) {
	p := core.NewPhysical(catalog())
	qMin := core.NewQuery("min", core.AggL(core.AggMin, 1, 3, nil, core.Scan("S")))
	qMax := core.NewQuery("max", core.AggL(core.AggMax, 1, 3, nil, core.Scan("S")))
	if err := p.AddQuery(qMin); err != nil {
		t.Fatal(err)
	}
	if err := p.AddQuery(qMax); err != nil {
		t.Fatal(err)
	}
	got := run(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 0, 5))
		e.Push("S", stream.NewTuple(1, 0, 2))
		e.Push("S", stream.NewTuple(2, 0, 9))
		e.Push("S", stream.NewTuple(3, 0, 4)) // window drops ts=0 (value 5)
	})
	wantMin := []string{"@0|5", "@1|2", "@2|2", "@3|2"}
	wantMax := []string{"@0|5", "@1|5", "@2|9", "@3|9"}
	sort.Strings(wantMin)
	sort.Strings(wantMax)
	for i := range wantMin {
		if got[qMin.ID][i] != wantMin[i] {
			t.Fatalf("min got %v want %v", got[qMin.ID], wantMin)
		}
		if got[qMax.ID][i] != wantMax[i] {
			t.Fatalf("max got %v want %v", got[qMax.ID], wantMax)
		}
	}
}

// TestProjectSharedOverChannel: identical projections over a channel apply
// the map once and pass the membership through (§3.1's π example).
func TestProjectSharedOverChannel(t *testing.T) {
	p := core.NewPhysical(catalog())
	m := &expr.SchemaMap{Cols: []expr.Expr{expr.Col{I: 1}, expr.Col{I: 0}}}
	var qs []*core.Query
	for i := 1; i <= 2; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i), core.ProjectL(m, core.Scan(fmt.Sprintf("S%d", i))))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S1", withMember(stream.NewTuple(0, 1, 2), bitset.FromIndices(0, 1)))
	e.Push("S1", withMember(stream.NewTuple(1, 3, 4), bitset.FromIndices(1)))
	if e.ResultCount(qs[0].ID) != 1 || e.ResultCount(qs[1].ID) != 2 {
		t.Fatalf("counts: %d, %d", e.ResultCount(qs[0].ID), e.ResultCount(qs[1].ID))
	}
}

// TestLowerErrors covers lowering failure paths.
func TestLowerErrors(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SelectL(expr.True{}, core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	empty := &core.Node{ID: 999, Kind: core.KindSelect}
	if _, err := mop.Lower(p, empty, nil); err == nil {
		t.Fatal("empty node must not lower")
	}
}

// TestSeqSelfPair rejects seq ops whose two inputs are the same edge.
func TestSeqSelfPair(t *testing.T) {
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", core.SeqL(expr.True2{}, 10, core.Scan("S"), core.Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.New(p); err == nil {
		t.Fatal("self-pair seq should fail to lower")
	}
}

// TestMuNonDeterministicDuplication exercises the Cayuga non-determinism
// (§4.2): when both the rebind and the filter edge accept an event, the
// instance is duplicated — one copy rebinds (and emits), one stays
// unchanged. With rebind "event.b > last.b" and filter "event.b = last.b
// is false ∨ ..." chosen to overlap, a later smaller value must still
// extend the stayed copy.
func TestMuNonDeterministicDuplication(t *testing.T) {
	p := core.NewPhysical(catalog())
	// State = start(a,b) ++ last(a,b). Rebind: event.b > last.b (index 3).
	rebind := expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}
	// Filter overlaps rebind: any event with a = 1 keeps the instance.
	filter := expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}}
	q := core.NewQuery("q", core.MuL(rebind, filter, 100, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	got := run(t, p, func(e *engine.Engine) {
		e.Push("S", stream.NewTuple(0, 9, 10)) // instance, last.b = 10
		// a=1 and b=20 > 10: rebind AND filter → duplicate. One copy has
		// last.b=20, the stayed copy still has last.b=10.
		e.Push("T", stream.NewTuple(1, 1, 20))
		// b=15: extends only the stayed copy (15 > 10 but not > 20); that
		// extension again duplicates (a=1 keeps a 10-copy around).
		e.Push("T", stream.NewTuple(2, 1, 15))
	})
	want := []string{"@1|9,10,1,20", "@2|9,10,1,15"}
	sort.Strings(want)
	if len(got[q.ID]) != 2 || got[q.ID][0] != want[0] || got[q.ID][1] != want[1] {
		t.Fatalf("got %v, want %v", got[q.ID], want)
	}
}

// TestMuDuplicationParityWithAutomaton checks the duplication branch
// agrees between the automaton engine and the translated plan.
func TestMuDuplicationParityWithAutomaton(t *testing.T) {
	rebind := expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}
	filter := expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}}
	aq := &automaton.Query{Name: "dup", Stages: []automaton.Stage{
		{Kind: automaton.StageStart, Input: "S"},
		{Kind: automaton.StageMu, Input: "T", Window: 100, Pred: rebind, Filter: filter},
	}}
	ae := automaton.NewEngine(map[string]*stream.Schema{
		"S": stream.MustSchema("S", "a", "b"),
		"T": stream.MustSchema("T", "a", "b"),
	})
	id, err := ae.AddQuery(aq)
	if err != nil {
		t.Fatal(err)
	}
	var autRes []string
	ae.OnResult = func(_ int, tu *stream.Tuple) { autRes = append(autRes, tu.ContentKey()) }

	p := core.NewPhysical(catalog())
	l, err := aq.ToLogical()
	if err != nil {
		t.Fatal(err)
	}
	cq := core.NewQuery("dup", l)
	if err := p.AddQuery(cq); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var rumRes []string
	e.OnResult = func(_ int, tu *stream.Tuple) { rumRes = append(rumRes, tu.ContentKey()) }

	feed := []struct {
		src string
		t   *stream.Tuple
	}{
		{"S", stream.NewTuple(0, 9, 10)},
		{"T", stream.NewTuple(1, 1, 20)},
		{"T", stream.NewTuple(2, 1, 15)},
		{"T", stream.NewTuple(3, 2, 30)}, // rebind only (a≠1): extends, no dup
		{"T", stream.NewTuple(4, 2, 5)},  // neither edge: those instances die
		{"T", stream.NewTuple(5, 1, 99)}, // extends any survivors
	}
	for _, f := range feed {
		ae.Process(f.src, f.t)
		if err := e.Push(f.src, f.t); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(autRes)
	sort.Strings(rumRes)
	if len(autRes) != len(rumRes) {
		t.Fatalf("automaton %d vs RUMOR %d results\naut: %v\nrum: %v",
			len(autRes), len(rumRes), autRes, rumRes)
	}
	for i := range autRes {
		if autRes[i] != rumRes[i] {
			t.Fatalf("result %d: %q vs %q", i, autRes[i], rumRes[i])
		}
	}
	if ae.ResultCount(id) == 0 {
		t.Fatal("expected at least one result")
	}
}

// TestSeqFRIndexInline: left-side constant conjuncts inside the sequence
// predicate (instead of an explicit σ below the ;) are peeled into the
// m-op's FR index and evaluated at insertion time (§4.3).
func TestSeqFRIndexInline(t *testing.T) {
	p := core.NewPhysical(catalog())
	var qs []*core.Query
	for i := 0; i < 6; i++ {
		pred := expr.NewAnd2(
			expr.Left{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}},
			expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i + 1)}},
		)
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.SeqL(pred, 100, core.Scan("S"), core.Scan("T")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	// All six seq ops merge into one m-op node.
	nSeq := 0
	for _, n := range p.Nodes {
		if n.Kind == core.KindSeq {
			nSeq++
		}
	}
	if nSeq != 1 {
		t.Fatalf("seq nodes = %d, want 1", nSeq)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S", stream.NewTuple(0, 2, 0)) // inserted only for query 2 (FR)
	e.Push("T", stream.NewTuple(1, 3, 0)) // AN: activates query 2's group
	e.Push("T", stream.NewTuple(2, 1, 0)) // query 0's group has no state
	for i, q := range qs {
		want := int64(0)
		if i == 2 {
			want = 1
		}
		if e.ResultCount(q.ID) != want {
			t.Fatalf("query %d count = %d, want %d", i, e.ResultCount(q.ID), want)
		}
	}
}

// TestSeqFRWithResidualLeftPred: a non-indexable left conjunct is folded
// into the insertion-time predicate.
func TestSeqFRWithResidualLeftPred(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.NewAnd2(
		expr.Left{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 5}},
		expr.Left{P: expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 10}},
	)
	q := core.NewQuery("q", core.SeqL(pred, 100, core.Scan("S"), core.Scan("T")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S", stream.NewTuple(0, 5, 9))  // fails residual b > 10: not stored
	e.Push("T", stream.NewTuple(1, 0, 0))  // nothing
	e.Push("S", stream.NewTuple(2, 5, 11)) // stored
	e.Push("T", stream.NewTuple(3, 0, 0))  // match
	if e.ResultCount(q.ID) != 1 {
		t.Fatalf("count = %d, want 1", e.ResultCount(q.ID))
	}
}

// TestFragmentAggMinMax exercises the fragment-merge path for extremum
// aggregates (value multisets are summed across fragments).
func TestFragmentAggMinMax(t *testing.T) {
	p := core.NewPhysical(catalog())
	var qs []*core.Query
	for i := 1; i <= 2; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.AggL(core.AggMax, 1, 10, nil, core.Scan(fmt.Sprintf("S%d", i))))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var res []string
	e.OnResult = func(q int, tu *stream.Tuple) {
		res = append(res, fmt.Sprintf("q%d:%s", q, tu.ContentKey()))
	}
	// Both streams see 5; only stream 0 sees 9; then both see 7.
	e.Push("S1", withMember(stream.NewTuple(0, 0, 5), bitset.FromIndices(0, 1)))
	e.Push("S1", withMember(stream.NewTuple(1, 0, 9), bitset.FromIndices(0)))
	e.Push("S1", withMember(stream.NewTuple(2, 0, 7), bitset.FromIndices(0, 1)))
	sort.Strings(res)
	want := []string{
		fmt.Sprintf("q%d:@0|5", qs[0].ID),
		fmt.Sprintf("q%d:@0|5", qs[1].ID),
		fmt.Sprintf("q%d:@1|9", qs[0].ID), // max{5,9}
		fmt.Sprintf("q%d:@2|9", qs[0].ID), // max{5,9,7}
		fmt.Sprintf("q%d:@2|7", qs[1].ID), // max{5,7} — 9 not in stream 1
	}
	sort.Strings(want)
	if len(res) != len(want) {
		t.Fatalf("res = %v\nwant %v", res, want)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res = %v\nwant %v", res, want)
		}
	}
}
