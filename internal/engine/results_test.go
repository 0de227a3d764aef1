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

// relEngine lowers the relational script at test scale, channels on: n
// filter+project, n aggregate and n join queries over S and T, windows
// drawn from 1..60.
func relEngine(tb testing.TB, n int) *Engine {
	tb.Helper()
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
	script, err := cql.Parse(b.String())
	if err != nil {
		tb.Fatal(err)
	}
	return optimizedEngine(tb, script.Catalog, script.Queries, true)
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

// resultAllocPass feeds a fresh engine from build through PushColumns at
// the given block size, with or without a result callback that only
// counts, and returns allocs/event after a warm-up tenth of the feed.
//
// The list of parked results is sized up front. It holds more entries
// with a callback (every result on a sink-only edge) than without (only
// the Owned ones of count-only edges), so its amortized growth would
// otherwise land in the counted window in one mode and not the other; it
// is a one-time cost, and the comparison is of the cost per event.
func resultAllocPass(t *testing.T, build func() *Engine, events []workload.Event, blockSize int, callback bool) float64 {
	return lowestOf3(func() float64 {
		e := build()
		e.SetBlockSize(blockSize)
		e.results = make([]queued, 0, 1<<16)
		var calls int64
		if callback {
			e.OnResult = func(int, *stream.Tuple) { calls++ }
		}
		feed := buildColFeed(events, 256)
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
		return a
	})
}

// A result callback borrows each result tuple, so installing one must not
// cost a single allocation: the tuples it sees go back to the engine's
// pool as the counted ones do. Covered on the plan with aggregates, joins
// and projections, and on Workload 1's sequence outputs, through one-row
// blocks (every row through the block→scalar adapter) and full blocks.
func TestResultCallbackAllocIdentical(t *testing.T) {
	p, w1 := w1Queries(t, 50)
	cases := []struct {
		name   string
		build  func() *Engine
		events []workload.Event
	}{
		{"rel", func() *Engine { return relEngine(t, 20) }, relEvents(3000)},
		{"w1", func() *Engine { return optimizedEngine(t, p.Catalog(), w1, false) }, p.GenStreams(4000)},
	}
	for _, c := range cases {
		for _, bs := range []int{1, 256} {
			t.Run(fmt.Sprintf("%s/block=%d", c.name, bs), func(t *testing.T) {
				none := resultAllocPass(t, c.build, c.events, bs, false)
				counting := resultAllocPass(t, c.build, c.events, bs, true)
				if counting != none {
					t.Fatalf("allocs/event with a result callback %.6f, without %.6f", counting, none)
				}
			})
		}
	}
}

// Results are recycled per activation, not per drain: after one 256-row
// drain with a callback installed, the pool's free list holds about what
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
