package rules_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

func catalog() map[string]core.SourceDecl {
	c := map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", "a", "b")},
		"T": {Schema: stream.MustSchema("T", "a", "b")},
	}
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("S%d", i)
		c[name] = core.SourceDecl{Schema: stream.MustSchema(name, "a", "b"), Label: "sh"}
	}
	return c
}

func countKind(p *core.Physical, k core.OpKind) int {
	n := 0
	for _, nd := range p.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

func TestSelectMergeRule(t *testing.T) {
	p := core.NewPhysical(catalog())
	for i := 0; i < 5; i++ {
		q := core.NewQuery("q", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, core.Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countKind(p, core.KindSelect); got != 1 {
		t.Fatalf("select nodes after sσ = %d, want 1", got)
	}
	sel := findKind(p, core.KindSelect)
	if len(sel.Ops) != 5 {
		t.Fatalf("merged m-op implements %d ops, want 5", len(sel.Ops))
	}
}

func findKind(p *core.Physical, k core.OpKind) *core.Node {
	for _, n := range p.Nodes {
		if n.Kind == k {
			return n
		}
	}
	return nil
}

func TestCSECollapsesIdenticalQueries(t *testing.T) {
	p := core.NewPhysical(catalog())
	mk := func() *core.Query {
		return core.NewQuery("q", core.AggL(core.AggAvg, 1, 60, []int{0}, core.Scan("S")))
	}
	q1, q2, q3 := mk(), mk(), mk()
	for _, q := range []*core.Query{q1, q2, q3} {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countKind(p, core.KindAgg); got != 1 {
		t.Fatalf("agg nodes = %d, want 1", got)
	}
	agg := findKind(p, core.KindAgg)
	if len(agg.Ops) != 1 {
		t.Fatalf("CSE should leave 1 op, got %d", len(agg.Ops))
	}
	// All three queries still produce results.
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("S", stream.NewTuple(0, 1, 10))
	for _, q := range []*core.Query{q1, q2, q3} {
		if e.ResultCount(q.ID) != 1 {
			t.Fatalf("query %d got %d results", q.ID, e.ResultCount(q.ID))
		}
	}
}

func TestSeqMergeRule(t *testing.T) {
	p := core.NewPhysical(catalog())
	// Workload-1 shape: σ[a=c](S) ; (r.a=c' ∧ window) T.
	for i := 0; i < 8; i++ {
		sel := core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, core.Scan("S"))
		pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i + 1)}})
		q := core.NewQuery("q", core.SeqL(pred, int64(10+i), sel, core.Scan("T")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countKind(p, core.KindSelect); got != 1 {
		t.Fatalf("select nodes = %d, want 1", got)
	}
	if got := countKind(p, core.KindSeq); got != 1 {
		t.Fatalf("seq nodes = %d, want 1", got)
	}
}

func TestJoinMergeSharesAcrossWindows(t *testing.T) {
	p := core.NewPhysical(catalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	for i := 0; i < 4; i++ {
		q := core.NewQuery("q", core.JoinL(pred, int64(10*(i+1)), core.Scan("S"), core.Scan("T")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countKind(p, core.KindJoin); got != 1 {
		t.Fatalf("join nodes = %d, want 1 (s⨝ should ignore windows)", got)
	}
}

func TestAggMergeGroupBy(t *testing.T) {
	p := core.NewPhysical(catalog())
	// Same fn/attr/window, different group-by: sα merges the nodes.
	q1 := core.NewQuery("q1", core.AggL(core.AggSum, 1, 60, []int{0}, core.Scan("S")))
	q2 := core.NewQuery("q2", core.AggL(core.AggSum, 1, 60, nil, core.Scan("S")))
	// Different window: merged too, as s⨝ merges joins across windows.
	q3 := core.NewQuery("q3", core.AggL(core.AggSum, 1, 90, []int{0}, core.Scan("S")))
	for _, q := range []*core.Query{q1, q2, q3} {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countKind(p, core.KindAgg); got != 1 {
		t.Fatalf("agg nodes = %d, want 1", got)
	}
}

func TestChannelizeLabelledSources(t *testing.T) {
	p := core.NewPhysical(catalog())
	// Workload-3 shape: Si ; T with identical definitions over sharable Si.
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	n := 6
	var qs []*core.Query
	for i := 1; i <= n; i++ {
		q := core.NewQuery("q", core.SeqL(pred, 100, core.Scan(fmt.Sprintf("S%d", i)), core.Scan("T")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Channels != 1 {
		t.Fatalf("channels = %d, want 1\n%s", st.Channels, p.String())
	}
	if got := countKind(p, core.KindSeq); got != 1 {
		t.Fatalf("seq nodes = %d, want 1", got)
	}
	if got := countKind(p, core.KindSource); got != 2 { // merged Si node + T
		t.Fatalf("source nodes = %d, want 2", got)
	}
	// The channel must carry n streams.
	for _, e := range p.Edges {
		if e.IsChannel() && len(e.Streams) != n {
			t.Fatalf("channel capacity = %d, want %d", len(e.Streams), n)
		}
	}
	// Execution: one channel tuple belonging to all streams matches every
	// query at once.
	eng, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	member := bitset.New(n)
	for i := 0; i < n; i++ {
		member.Set(i)
	}
	eng.Push("S1", stream.NewTuple(0, 7, 7).WithMember(member))
	eng.Push("T", stream.NewTuple(1, 7, 9))
	for _, q := range qs {
		if eng.ResultCount(q.ID) != 1 {
			t.Fatalf("query %d got %d results, want 1", q.ID, eng.ResultCount(q.ID))
		}
	}
}

// Hybrid-query cascade: one shared α, a merged σ-start m-op, a channel
// into a merged µ m-op, and a merged σ-stop m-op (Fig 6(c)).
func TestHybridChannelCascade(t *testing.T) {
	p := core.NewPhysical(catalog())
	n := 5
	var qs []*core.Query
	for i := 0; i < n; i++ {
		smoothed := core.AggL(core.AggAvg, 1, 5, []int{0}, core.Scan("S"))
		start := core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: int64(20 + i)}, smoothed)
		rebind := expr.NewAnd2(
			expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0},
			expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1},
		)
		filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}}
		smoothed2 := core.AggL(core.AggAvg, 1, 5, []int{0}, core.Scan("S"))
		mu := core.MuL(rebind, filter, 3600, start, smoothed2)
		stop := core.SelectL(expr.ConstCmp{Attr: 3, Op: expr.Gt, C: 90}, mu)
		q := core.NewQuery(fmt.Sprintf("h%d", i), stop)
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if got := countKind(p, core.KindAgg); got != 1 {
		t.Fatalf("agg nodes = %d, want 1 (CSE)", got)
	}
	if got := countKind(p, core.KindMu); got != 1 {
		t.Fatalf("mu nodes = %d, want 1 (cµ)", got)
	}
	if got := countKind(p, core.KindSelect); got != 2 {
		t.Fatalf("select nodes = %d, want 2 (starts, stops)", got)
	}
	st := p.Stats()
	if st.Channels < 2 {
		t.Fatalf("channels = %d, want ≥ 2 (C into µ, D into σ-stop)\n%s", st.Channels, p.String())
	}
	_ = qs
}

// ---------------------------------------------------------------------------
// The paper's central invariant: an optimized plan is input/output
// equivalent to the naive plan (§2.2 defines m-op semantics by one-by-one
// execution of the implemented operators).
// ---------------------------------------------------------------------------

type queryGen func(r *rand.Rand, i int) *core.Logical

func randSelect(r *rand.Rand, _ int) *core.Logical {
	src := "S"
	if r.Intn(2) == 0 {
		src = "T"
	}
	return core.SelectL(expr.ConstCmp{Attr: r.Intn(2), Op: expr.CmpOp(r.Intn(6)), C: int64(r.Intn(6))}, core.Scan(src))
}

func randAgg(r *rand.Rand, _ int) *core.Logical {
	var gb []int
	if r.Intn(2) == 0 {
		gb = []int{r.Intn(2)}
	}
	return core.AggL(core.AggFn(r.Intn(5)), r.Intn(2), int64(1+r.Intn(8)), gb, core.Scan("S"))
}

func randJoin(r *rand.Rand, _ int) *core.Logical {
	return core.JoinL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, int64(1+r.Intn(10)), core.Scan("S"), core.Scan("T"))
}

func randSeq(r *rand.Rand, _ int) *core.Logical {
	sel := core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(r.Intn(4))}, core.Scan("S"))
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(r.Intn(4))}})
	return core.SeqL(pred, int64(2+r.Intn(10)), sel, core.Scan("T"))
}

func randSeqEq(r *rand.Rand, _ int) *core.Logical {
	return core.SeqL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, int64(2+r.Intn(10)), core.Scan("S"), core.Scan("T"))
}

func randMu(r *rand.Rand, _ int) *core.Logical {
	rebind := expr.NewAnd2(
		expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0},
		expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1},
	)
	filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}}
	sel := core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: int64(2 + r.Intn(4))}, core.Scan("S"))
	return core.MuL(rebind, filter, int64(5+r.Intn(20)), sel, core.Scan("S"))
}

func randChannelSeq(r *rand.Rand, i int) *core.Logical {
	src := fmt.Sprintf("S%d", 1+i%10)
	return core.SeqL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, int64(2+r.Intn(10)), core.Scan(src), core.Scan("T"))
}

var gens = []queryGen{randSelect, randAgg, randJoin, randSeq, randSeqEq, randMu, randChannelSeq}

// runPlan executes the feed against a plan and returns sorted result keys
// per query.
func runPlan(t *testing.T, p *core.Physical, nq int, feed [][2]interface{}) map[int][]string {
	t.Helper()
	e, err := engine.New(p)
	if err != nil {
		t.Fatalf("engine: %v\n%s", err, p.String())
	}
	got := make(map[int][]string, nq)
	e.OnResult = func(q int, tu *stream.Tuple) { got[q] = append(got[q], tu.ContentKey()) }
	for _, f := range feed {
		// Sources no query scans have no edge in the plan; both the naive
		// and the optimized plan use the same query set, so skipping them
		// is symmetric.
		if err := e.Push(f[0].(string), f[1].(*stream.Tuple)); err != nil {
			continue
		}
	}
	for q := range got {
		sort.Strings(got[q])
	}
	return got
}

func equivalenceRound(t *testing.T, seed int64, channels bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nq := 3 + r.Intn(8)
	build := func() (*core.Physical, []*core.Query) {
		p := core.NewPhysical(catalog())
		var qs []*core.Query
		rq := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < nq; i++ {
			g := gens[rq.Intn(len(gens))]
			q := core.NewQuery(fmt.Sprintf("q%d", i), g(rq, i))
			if err := p.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		return p, qs
	}
	naive, qsN := build()
	opt, qsO := build()
	if err := rules.Optimize(opt, rules.Options{Channels: channels}); err != nil {
		t.Fatal(err)
	}

	// Random interleaved feed over all sources.
	var feed [][2]interface{}
	sources := []string{"S", "T", "S", "T", "S1", "S2", "S3"}
	n := 60 + r.Intn(100)
	for ts := 0; ts < n; ts++ {
		src := sources[r.Intn(len(sources))]
		tu := stream.NewTuple(int64(ts), int64(r.Intn(5)), int64(r.Intn(6)))
		feed = append(feed, [2]interface{}{src, tu})
	}

	gotN := runPlan(t, naive, nq, feed)
	gotO := runPlan(t, opt, nq, feed)
	for i := range qsN {
		a, b := gotN[qsN[i].ID], gotO[qsO[i].ID]
		if len(a) != len(b) {
			t.Fatalf("seed %d channels=%v query %d: naive %d results, optimized %d\nnaive: %v\nopt:   %v\nplan:\n%s",
				seed, channels, i, len(a), len(b), a, b, opt.String())
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("seed %d channels=%v query %d result %d: %q vs %q", seed, channels, i, j, a[j], b[j])
			}
		}
	}
}

func TestOptimizedPlanEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		equivalenceRound(t, seed, false)
		equivalenceRound(t, seed, true)
	}
}

func TestOptimizerTraceAndRounds(t *testing.T) {
	p := core.NewPhysical(catalog())
	for i := 0; i < 3; i++ {
		q := core.NewQuery("q", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, core.Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	var fired []string
	o := rules.NewOptimizer(rules.Options{Channels: true})
	o.Trace = func(s string) { fired = append(fired, s) }
	rounds, err := o.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 || len(fired) == 0 {
		t.Fatalf("rounds=%d fired=%v", rounds, fired)
	}
	// Running again reaches fixpoint immediately.
	rounds2, err := o.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rounds2 != 0 {
		t.Fatalf("second run rounds = %d, want 0", rounds2)
	}
}
