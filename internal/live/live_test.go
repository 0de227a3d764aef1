package live

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

func catalogST() map[string]core.SourceDecl {
	return map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", "a", "b")},
		"T": {Schema: stream.MustSchema("T", "a", "b")},
	}
}

func buildEngine(t testing.TB, catalog map[string]core.SourceDecl, opt rules.Options, qs ...*core.Query) (*core.Physical, *engine.Engine) {
	t.Helper()
	p := core.NewPhysical(catalog)
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, opt); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

type ev struct {
	src  string
	ts   int64
	vals []int64
}

func push(t *testing.T, e *engine.Engine, events []ev) {
	t.Helper()
	for _, x := range events {
		vals := append([]int64(nil), x.vals...)
		if err := e.Push(x.src, &stream.Tuple{TS: x.ts, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddQuerySharesAggState adds an identical aggregation mid-stream: CSE
// must reuse the running operator (shared state included), and the
// original query's results must stay identical to a solo run.
func TestAddQuerySharesAggState(t *testing.T) {
	aggQ := func(name string) *core.Query {
		return core.NewQuery(name, core.AggL(core.AggSum, 0, 10, []int{1}, core.Scan("S")))
	}
	var events []ev
	for i := 0; i < 40; i++ {
		events = append(events, ev{"S", int64(i), []int64{int64(i % 7), int64(i % 3)}})
	}

	// Oracle: q0 alone over everything.
	_, oracle := buildEngine(t, catalogST(), rules.Options{}, aggQ("q0"))
	push(t, oracle, events)

	p, e := buildEngine(t, catalogST(), rules.Options{}, aggQ("q0"))
	push(t, e, events[:20])
	mid := e.ResultCount(0)

	q1 := aggQ("q1")
	d, err := AddQuery(p, rules.Options{}, q1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	push(t, e, events[20:])

	if got, want := e.ResultCount(0), oracle.ResultCount(0); got != want {
		t.Fatalf("q0 results after live add = %d, want %d (solo run)", got, want)
	}
	// CSE reused the running operator: q1's post-add results equal q0's.
	if got, want := e.ResultCount(q1.ID), e.ResultCount(0)-mid; got != want {
		t.Fatalf("q1 results = %d, want %d (shared operator since add)", got, want)
	}
}

// TestAddSeqMergesIntoRunningGroup adds a window-variant sequence query:
// it must merge into the running shared m-op (one node, two ops) and the
// original query's results must match a solo run — the stored instances
// survive the delta.
func TestAddSeqMergesIntoRunningGroup(t *testing.T) {
	seqQ := func(name string, w int64) *core.Query {
		return core.NewQuery(name, core.SeqL(
			expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, w, core.Scan("S"), core.Scan("T")))
	}
	var events []ev
	for i := 0; i < 60; i++ {
		src := "S"
		if i%2 == 1 {
			src = "T"
		}
		events = append(events, ev{src, int64(i), []int64{int64(i % 5), int64(i)}})
	}

	_, oracle := buildEngine(t, catalogST(), rules.Options{}, seqQ("q0", 100))
	push(t, oracle, events)

	p, e := buildEngine(t, catalogST(), rules.Options{}, seqQ("q0", 100))
	push(t, e, events[:30])

	q1 := seqQ("q1", 50)
	d, err := AddQuery(p, rules.Options{}, q1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("add delta is empty")
	}
	if err := e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	seqNodes, seqOps := 0, 0
	for _, n := range p.Nodes {
		if n.Kind == core.KindSeq {
			seqNodes++
			seqOps += len(n.Ops)
		}
	}
	if seqNodes != 1 || seqOps != 2 {
		t.Fatalf("seq nodes = %d (ops %d), want one merged m-op with 2 ops\n%s",
			seqNodes, seqOps, p.String())
	}
	push(t, e, events[30:])

	if got, want := e.ResultCount(0), oracle.ResultCount(0); got != want {
		t.Fatalf("q0 results after live add = %d, want %d (stored instances must survive)", got, want)
	}
	if e.ResultCount(q1.ID) == 0 {
		t.Fatal("q1 produced no results (expected matches after its addition)")
	}
}

// TestAddWindowVariantAggJoinsFamily adds aggregates that differ from a
// running one only in their window: each joins the running m-op's family
// (one agg node), the base query's results stay those of a solo run, and
// from its first post-add tuple the new query's results equal a
// from-scratch plan's, because its window is no longer than the family's
// largest and the shared log still holds all of it. Removing the largest
// window then shrinks the retained log to what the rest still needs.
func TestAddWindowVariantAggJoinsFamily(t *testing.T) {
	const baseWindow = 20
	aggQ := func(name string, w int64) *core.Query {
		return core.NewQuery(name, core.AggL(core.AggSum, 1, w, []int{0}, core.Scan("S")))
	}
	var events []ev
	for i := 0; i < 90; i++ {
		events = append(events, ev{"S", int64(i), []int64{int64(i % 4), int64(i*7%11 + 1)}})
	}
	const mid = 45
	resultsOf := func(e *engine.Engine) map[int][]string {
		got := map[int][]string{}
		e.OnResult = func(qid int, tu *stream.Tuple) { got[qid] = append(got[qid], tu.ContentKey()) }
		return got
	}
	retained := func(e *engine.Engine) int64 {
		reg := e.StateRegistry()
		h := map[int64]int64{}
		for _, g := range reg.Groups() {
			reg.Histogram(g.OpID, 0, 0, h)
		}
		var n int64
		for _, c := range h {
			n += c
		}
		return n
	}

	_, solo := buildEngine(t, catalogST(), rules.Options{}, aggQ("q0", baseWindow))
	soloRes := resultsOf(solo)
	push(t, solo, events)

	for _, w := range []int64{5, 12, baseWindow} {
		t.Run(fmt.Sprintf("window=%d", w), func(t *testing.T) {
			_, scratch := buildEngine(t, catalogST(), rules.Options{}, aggQ("q1", w))
			want := resultsOf(scratch)
			push(t, scratch, events)

			p, e := buildEngine(t, catalogST(), rules.Options{}, aggQ("q0", baseWindow))
			got := resultsOf(e)
			push(t, e, events[:mid])
			q1 := aggQ("q1", w)
			d, err := AddQuery(p, rules.Options{}, q1)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if n := countAggNodes(p); n != 1 {
				t.Fatalf("agg nodes = %d, want 1 (the variant joins the family)\n%s", n, p.String())
			}
			push(t, e, events[mid:])

			if fmt.Sprint(got[0]) != fmt.Sprint(soloRes[0]) {
				t.Fatalf("q0 results after live add differ from a solo run")
			}
			if post := want[0][mid:]; fmt.Sprint(got[q1.ID]) != fmt.Sprint(post) {
				t.Fatalf("q1 results = %v,\nwant %v (from-scratch results from the add on)", got[q1.ID], post)
			}

			before := retained(e)
			d, err = RemoveQuery(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			after := retained(e)
			if w < baseWindow && (after >= before || after > w) {
				t.Fatalf("retained log %d → %d entries after removing window %d, want ≤ %d",
					before, after, baseWindow, w)
			}
			if w == baseWindow && after != before {
				t.Fatalf("retained log %d → %d entries, want it kept (window %d remains)", before, after, w)
			}
		})
	}
}

func countAggNodes(p *core.Physical) int {
	n := 0
	for _, nd := range p.Nodes {
		if nd.Kind == core.KindAgg {
			n++
		}
	}
	return n
}

// TestRemoveQueryGCsExclusiveState removes one of two selection queries:
// its operator (and node) must be garbage-collected, the survivor must be
// unaffected, and the removed query's counter must freeze at its final
// value.
func TestRemoveQueryGCsExclusiveState(t *testing.T) {
	selQ := func(name string, c int64) *core.Query {
		return core.NewQuery(name, core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c}, core.Scan("S")))
	}
	var events []ev
	for i := 0; i < 30; i++ {
		events = append(events, ev{"S", int64(i), []int64{int64(i % 4), 0}})
	}

	_, oracle := buildEngine(t, catalogST(), rules.Options{}, selQ("keep", 1))
	push(t, oracle, events)

	p, e := buildEngine(t, catalogST(), rules.Options{}, selQ("keep", 1), selQ("drop", 2))
	push(t, e, events[:10])
	dropFinal := e.ResultCount(1)
	opsBefore := p.Stats().Ops

	d, err := RemoveQuery(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Ops; got != opsBefore-1 {
		t.Fatalf("ops after remove = %d, want %d\n%s", got, opsBefore-1, p.String())
	}
	push(t, e, events[10:])

	if got, want := e.ResultCount(0), oracle.ResultCount(0); got != want {
		t.Fatalf("survivor results = %d, want %d", got, want)
	}
	if got := e.ResultCount(1); got != dropFinal {
		t.Fatalf("removed query count = %d, want frozen final %d", got, dropFinal)
	}
}

// TestAddBareScanRegistersSink adds a query that creates no new operators
// at all (a bare scan of an already-used source): the delta carries only
// the new query, and the engine must still register its sink.
func TestAddBareScanRegistersSink(t *testing.T) {
	selQ := core.NewQuery("q0", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, core.Scan("S")))
	p, e := buildEngine(t, catalogST(), rules.Options{}, selQ)
	push(t, e, []ev{{"S", 0, []int64{1, 0}}})

	raw := core.NewQuery("raw", core.Scan("S"))
	d, err := AddQuery(p, rules.Options{}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("delta with a new query must not be Empty")
	}
	if err := e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	push(t, e, []ev{{"S", 1, []int64{2, 0}}, {"S", 2, []int64{1, 0}}})
	if got := e.ResultCount(raw.ID); got != 2 {
		t.Fatalf("bare-scan query results = %d, want 2", got)
	}
	// And removal of a sink-only query unregisters it without touching ops.
	d, err = RemoveQuery(p, raw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	push(t, e, []ev{{"S", 3, []int64{1, 0}}})
	if got := e.ResultCount(raw.ID); got != 2 {
		t.Fatalf("frozen bare-scan count = %d, want 2", got)
	}
	if got := e.ResultCount(0); got != 3 {
		t.Fatalf("survivor count = %d, want 3", got)
	}
}

// TestChannelGrowsAppendOnly adds a query over a freshly declared sharable
// source: the live channel rule must append the new stream to the running
// channel (positions preserved) and the pre-existing queries must keep
// producing solo-run results.
func TestChannelGrowsAppendOnly(t *testing.T) {
	catalog := map[string]core.SourceDecl{
		"T": {Schema: stream.MustSchema("T", "a", "b")},
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("S%d", i)
		catalog[name] = core.SourceDecl{Schema: stream.MustSchema(name, "a", "b"), Label: "w3"}
	}
	seqQ := func(name, src string) *core.Query {
		return core.NewQuery(name, core.SeqL(
			expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, 40, core.Scan(src), core.Scan("T")))
	}
	gen := func(k int, n int, ts int64) []ev {
		var events []ev
		for r := 0; r < n; r++ {
			for i := 1; i <= k; i++ {
				events = append(events, ev{fmt.Sprintf("S%d", i), ts, []int64{int64(r % 3), int64(r)}})
				ts++
			}
			events = append(events, ev{"T", ts, []int64{int64(r % 3), 7}})
			ts++
		}
		return events
	}
	opt := rules.Options{Channels: true}

	p, e := buildEngine(t, catalog, opt, seqQ("q1", "S1"), seqQ("q2", "S2"))
	if got := p.Stats().Channels; got != 1 {
		t.Fatalf("channels = %d, want 1\n%s", got, p.String())
	}
	phase1 := gen(2, 10, 0)
	phase2 := gen(3, 10, 1000)
	push(t, e, phase1)

	// Declare a new sharable source and add a query over it.
	catalog["S3"] = core.SourceDecl{Schema: stream.MustSchema("S3", "a", "b"), Label: "w3"}
	q3 := seqQ("q3", "S3")
	d, err := AddQuery(p, opt, q3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// The channel must have grown to 3 streams.
	ch, pos := p.EdgeOf(p.SourceStream("S3"))
	if ch == nil || len(ch.Streams) != 3 || pos != 2 {
		t.Fatalf("S3 not appended to the channel (streams=%v pos=%d)\n%s", ch, pos, p.String())
	}
	// Positions of the pre-existing streams are unchanged.
	if _, p1 := p.EdgeOf(p.SourceStream("S1")); p1 != 0 {
		t.Fatalf("S1 position moved to %d", p1)
	}
	push(t, e, phase2)

	// Oracle for the pre-existing queries: solo run over the same inputs
	// (S3 tuples have no consumers there — drop them).
	op, oracle := buildEngine(t, map[string]core.SourceDecl{
		"T":  catalog["T"],
		"S1": catalog["S1"],
		"S2": catalog["S2"],
	}, opt, seqQ("q1", "S1"), seqQ("q2", "S2"))
	_ = op
	for _, x := range append(append([]ev(nil), phase1...), phase2...) {
		if x.src == "S3" {
			continue
		}
		vals := append([]int64(nil), x.vals...)
		if err := oracle.Push(x.src, &stream.Tuple{TS: x.ts, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
	for qid := 0; qid < 2; qid++ {
		if got, want := e.ResultCount(qid), oracle.ResultCount(qid); got != want {
			t.Fatalf("q%d results = %d, want %d (solo run)", qid+1, got, want)
		}
	}
	if e.ResultCount(q3.ID) == 0 {
		t.Fatal("q3 produced no results")
	}
}
