package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/expr"
	"repro/internal/mop"
	"repro/internal/stream"
	"repro/internal/workload"
)

// relEngine lowers the relational script at test scale, channels on.
func relEngine(tb testing.TB, n int) *Engine {
	tb.Helper()
	script, err := cql.Parse(relScript(n))
	if err != nil {
		tb.Fatal(err)
	}
	return optimizedEngine(tb, script.Catalog, script.Queries, true)
}

// relScript is the relational script at test scale: n filter+project, n
// aggregate and n join queries over S and T, windows drawn from 1..60.
func relScript(n int) string {
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	b.WriteString("CREATE STREAM S(a0, a1, a2);\nCREATE STREAM T(a0, a1, a2);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY flt_%d := PROJECT(a0, a1 FROM FILTER(a0 = %d AND a1 > %d, S));\n",
			i, rng.Intn(8), rng.Intn(100))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY agg_%d := AGG(avg(a1) OVER %d BY a0 FROM S);\n", i, 1+rng.Intn(60))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY join_%d := JOIN(S, T ON LEFT.a0 = EVENT.a0 WINDOW %d);\n", i, 1+rng.Intn(60))
	}
	return b.String()
}

// relEvents draws n events in alternating runs of 64 S and 64 T events,
// timestamps strictly increasing, values over the script's small domains.
func relEvents(n int) []workload.Event {
	rng := rand.New(rand.NewSource(5))
	events := make([]workload.Event, n)
	for i := range events {
		src := "S"
		if i/64%2 == 1 {
			src = "T"
		}
		events[i] = workload.Event{Source: src, Tuple: stream.NewTuple(int64(i),
			int64(rng.Intn(8)), int64(rng.Intn(100)), int64(rng.Intn(6)))}
	}
	return events
}

// resultAllocPass feeds a fresh engine from build through PushColumns
// calls of at most size rows, with or without a result callback that only
// counts, and returns allocs/event after a warm-up tenth of the feed.
//
// The list of parked results is sized up front, and the pool of results
// parked once per window prefix starts with what a callback run over the
// whole feed left in its own: that pool's high-water mark, one
// activation's share, in tuples of the workload's sizes. Both hold more
// with a callback (every result on a sink-only edge, and every ;/⨝ match
// of a sink-only group) than without (only the Owned results of
// count-only edges; a counted match is not built), so their growth would
// otherwise land in the counted window in one mode and not the other; it
// is a one-time cost, and the comparison is of the cost per event. The
// fill covers one activation, not the feed, and every tuple of it must be
// back in the pool when the feed ends, so a parked result that is not
// recycled still shows.
func resultAllocPass(t *testing.T, build func() *Engine, events []workload.Event, size int, callback bool) float64 {
	feed := buildColFeed(events, size)
	return lowestOf3(func() float64 {
		peak := build()
		peak.OnResult = func(int, *stream.Tuple) {}
		feedColumns(t, peak, feed)
		e := build()
		e.results = make([]parked, 0, 1<<16)
		fill := peak.parkPool.FreeCount()
		for range fill {
			e.parkPool.Put(peak.parkPool.Get(0, 0))
		}
		var calls int64
		if callback {
			e.OnResult = func(int, *stream.Tuple) { calls++ }
		}
		warm := len(feed) / 10
		measured := 0
		for _, cp := range feed[warm:] {
			measured += len(cp.ts)
		}
		a := allocsPerEvent(false, measured,
			func() { feedColumns(t, e, feed[:warm]) },
			func() { feedColumns(t, e, feed[warm:]) })
		if callback && calls == 0 {
			t.Fatal("the callback saw no results; the pass measured nothing")
		}
		if free := e.parkPool.FreeCount(); free < fill {
			t.Fatalf("%d of the %d tuples put in the park pool came back", free, fill)
		}
		return a
	})
}

// A result callback borrows each result tuple, so installing one must not
// cost a single allocation: the tuples it sees go back to the engine's
// pool as the counted ones do. Covered on the plan with aggregates, joins
// and projections, on Workload 1's sequence outputs, and on Workload 2 at
// 64 windows, whose matches reach many operators at once, through one-row
// PushColumns calls (every row a block of its own through the block→scalar
// adapter) and calls of full blocks.
func TestResultCallbackAllocIdentical(t *testing.T) {
	p, w1 := w1Queries(t, 50)
	_, w2p := w2WindowEngine(t, 64)
	cases := []struct {
		name   string
		build  func() *Engine
		events []workload.Event
	}{
		{"rel", func() *Engine { return relEngine(t, 20) }, relEvents(3000)},
		{"w1", func() *Engine { return optimizedEngine(t, p.Catalog(), w1, false) }, p.GenStreams(4000)},
		{"w2", func() *Engine { e, _ := w2WindowEngine(t, 64); return e }, w2p.GenStreams(4000)},
	}
	for _, c := range cases {
		for _, size := range []int{1, 256} {
			t.Run(fmt.Sprintf("%s/block=%d", c.name, size), func(t *testing.T) {
				none := resultAllocPass(t, c.build, c.events, size, false)
				counting := resultAllocPass(t, c.build, c.events, size, true)
				if counting != none {
					t.Fatalf("allocs/event with a result callback %.6f, without %.6f", counting, none)
				}
			})
		}
	}
}

// Results are recycled per activation, not per drain: after one 256-row
// drain with a callback installed, the pools' free lists hold about what
// one activation built, not every result of the drain. Recycling the
// drain's results only at its end would pin the drain's peak in the free
// list for the engine's lifetime.
func TestResultPoolBounded(t *testing.T) {
	e := relEngine(t, 20)
	// Distinct tuples per timestamp: every row of a run has its own
	// timestamp, and the results one activation builds carry its row's.
	perTS := map[int64]map[*stream.Tuple]bool{}
	e.OnResult = func(_ int, tu *stream.Tuple) {
		if perTS[tu.TS] == nil {
			perTS[tu.TS] = map[*stream.Tuple]bool{}
		}
		perTS[tu.TS][tu] = true
	}
	rng := rand.New(rand.NewSource(3))
	run := func(source string, ts0 int64) {
		ts := make([]int64, 256)
		cols := [][]int64{make([]int64, 256), make([]int64, 256), make([]int64, 256)}
		for i := range ts {
			ts[i] = ts0 + int64(i)
			cols[0][i], cols[1][i], cols[2][i] = rng.Int63n(8), rng.Int63n(100), rng.Int63n(6)
		}
		if err := e.PushColumns(source, ts, cols); err != nil {
			t.Fatal(err)
		}
	}
	run("T", 0) // the joins' other side
	clear(perTS)
	before := e.pool.FreeCount()
	run("S", 256)
	total, most := 0, 0
	for _, built := range perTS {
		total += len(built)
		most = max(most, len(built))
	}
	if total < 16*most {
		t.Fatalf("%d results in the drain, at most %d per activation: too few to tell", total, most)
	}
	if grown := e.pool.FreeCount() - before; grown > most+1 {
		t.Fatalf("free list grew by %d tuples over one drain of %d results; one activation built at most %d", grown, total, most)
	}
}

// A selection forwards its Owned input onto an edge with a sink and no
// consumer, and a reading consumer of the same input runs after it. The
// result must not be recycled before that consumer has read it, and the
// callback must see the values the selection forwarded.
func TestForwardedResultStaysReadable(t *testing.T) {
	swap := func() *core.Logical {
		return core.ProjectL(&expr.SchemaMap{Cols: []expr.Expr{expr.Col{I: 1}, expr.Col{I: 0}}}, core.Scan("S"))
	}
	fwd := core.NewQuery("fwd", core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 5}, swap()))
	read := core.NewQuery("read", core.ProjectL(&expr.SchemaMap{Cols: []expr.Expr{
		expr.Arith{Op: expr.Add, L: expr.Col{I: 0}, R: expr.Col{I: 1}}}}, swap()))
	catalog := map[string]core.SourceDecl{"S": {Schema: stream.MustSchema("S", "a", "b")}}
	e := optimizedEngine(t, catalog, []*core.Query{fwd, read}, false)

	// The plan must have the shape under test: the shared projection's
	// output keeps its tuples Owned and feeds the selection first, then
	// the reader.
	shaped := false
	for i := range e.routes {
		r := &e.routes[i]
		if len(r.consumers) != 2 || r.hasSink || r.clearsOwned {
			continue
		}
		first, second := r.consumers[0], r.consumers[1]
		if first.node.uses[first.port] == mop.PortForwards && second.node.uses[second.port] == mop.PortReads &&
			first.node.sinkOnly[0] {
			shaped = true
		}
	}
	if !shaped {
		t.Fatal("plan has no Owned edge feeding a forwarding selection and then a reader")
	}

	got := map[int][]string{}
	e.OnResult = func(q int, tu *stream.Tuple) { got[q] = append(got[q], tu.ContentKey()) }
	var want [2][]string
	for i := int64(0); i < 20; i++ {
		a, b := i, 20-i
		if err := e.Push("S", stream.NewTuple(i, a, b)); err != nil {
			t.Fatal(err)
		}
		if b > 5 {
			want[0] = append(want[0], fmt.Sprintf("@%d|%d,%d", i, b, a))
		}
		want[1] = append(want[1], fmt.Sprintf("@%d|%d", i, a+b))
	}
	for qi, q := range []*core.Query{fwd, read} {
		if g, w := strings.Join(got[q.ID], " "), strings.Join(want[qi], " "); g != w {
			t.Fatalf("%s results:\n got %s\nwant %s", q.Name, g, w)
		}
	}
	if e.pool.FreeCount() == 0 {
		t.Fatal("no result went back to the pool; the forwarded result was never recycled")
	}
}

// A match whose window prefix reaches only count-only edges is counted,
// not built: with every S instance stored first, one 256-row T run whose
// rows each complete a match for 45 of 64 windows allocates nothing.
func TestCountedMatchBuildsNothing(t *testing.T) {
	e, params := w2WindowEngine(t, 64)
	const rows, stored = 256, 2048
	column := func(n int, ts int64, a0 func(i int) int64) ([]int64, [][]int64) {
		tss := make([]int64, n)
		cols := make([][]int64, params.NumAttrs)
		for a := range cols {
			cols[a] = make([]int64, n)
		}
		for i := range tss {
			tss[i], cols[0][i] = ts, a0(i)
		}
		return tss, cols
	}
	// Every instance starts at 0 and no window is shorter than a match's
	// age plus one tick, so nothing expires, and at most a quarter of the
	// store dies by matching, so nothing is compacted.
	ts, cols := column(stored, 0, func(i int) int64 { return int64(i) })
	if err := e.PushColumns("S", ts, cols); err != nil {
		t.Fatal(err)
	}
	var runs [2]struct {
		ts   []int64
		cols [][]int64
	}
	for j := range runs {
		runs[j].ts, runs[j].cols = column(rows, int64(100*(j+1)), func(i int) int64 { return int64(rows*j + i) })
	}
	before := e.TotalResults()
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		r := runs[next]
		next++
		if err := e.PushColumns("T", r.ts, r.cols); err != nil {
			t.Fatal(err)
		}
	})
	// The warm-up run matches at age 100 (55 windows), the measured one
	// at age 200 (45 windows).
	if got, want := e.TotalResults()-before, int64(rows*(55+45)); got != want {
		t.Fatalf("%d results counted over both runs, want %d", got, want)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations in a T run of %d counted results; a counted match builds nothing", allocs, rows*45)
	}
}
