package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
	"repro/internal/workload"
)

// w2Engine lowers the optimized 1000-query Workload 2 plan: one shared ;
// m-op over S and T whose outputs are count-only edges, one per distinct
// window, each the plain sink of every query with that window.
func w2Engine(tb testing.TB) (*Engine, workload.Params) {
	tb.Helper()
	params := workload.DefaultParams()
	qs, err := workload.ToRUMOR(params.Workload2Seq())
	if err != nil {
		tb.Fatal(err)
	}
	return optimizedEngine(tb, params.Catalog(), qs, false), params
}

// w2WindowEngine lowers Workload 2's S ; T (S.a0 = T.a0) once per window
// 10, 20, ..., 10n over a 16-constant domain: one ; m-op with one state
// group of n operators that differ only in their window, so a match
// reaches every operator whose window covers its age.
func w2WindowEngine(tb testing.TB, n int) (*Engine, workload.Params) {
	tb.Helper()
	params := workload.DefaultParams()
	params.NumQueries = n
	params.ConstDomain = 16
	aqs := params.Workload2Seq()
	for i, q := range aqs {
		q.Stages[1].Window = int64(10 * (i + 1))
	}
	qs, err := workload.ToRUMOR(aqs)
	if err != nil {
		tb.Fatal(err)
	}
	return optimizedEngine(tb, params.Catalog(), qs, false), params
}

// w2Ticks builds n ticks of 256 S rows then 256 T rows, every attribute
// uniform over the constant domain; tick k's timestamps follow tick k-1's.
func w2Ticks(n int, params workload.Params) (ts [][]int64, cols [][][]int64) {
	const rows = 256
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 2*n; k++ {
		t := make([]int64, rows)
		c := make([][]int64, params.NumAttrs)
		for a := range c {
			c[a] = make([]int64, rows)
			for i := range c[a] {
				c[a][i] = rng.Int63n(int64(params.ConstDomain))
			}
		}
		for i := range t {
			t[i] = int64(k*rows + i)
		}
		ts, cols = append(ts, t), append(cols, c)
	}
	return ts, cols
}

// pushTick pushes tick k of w2Ticks, S before T.
func pushTick(tb testing.TB, e *Engine, ts [][]int64, cols [][][]int64, k int) {
	if err := e.PushColumns("S", ts[2*k], cols[2*k]); err != nil {
		tb.Fatal(err)
	}
	if err := e.PushColumns("T", ts[2*k+1], cols[2*k+1]); err != nil {
		tb.Fatal(err)
	}
}

// TestResultCountOnlyEdges: on the W2 plan every ; output is counted at
// emission when no callback is installed, and the counts equal those of
// the run that delivers every result to a callback.
func TestResultCountOnlyEdges(t *testing.T) {
	counted, params := w2Engine(t)
	called, _ := w2Engine(t)
	calls := map[int]int64{}
	called.OnResult = func(q int, _ *stream.Tuple) { calls[q]++ }
	countOnly := 0
	for _, rn := range counted.nodes {
		for _, c := range rn.count {
			if c != nil {
				countOnly++
			}
		}
	}
	if countOnly < 2 {
		t.Fatalf("%d count-only output ports on the W2 plan, want one per distinct window", countOnly)
	}
	ts, cols := w2Ticks(8, params)
	for k := 0; k < 8; k++ {
		pushTick(t, counted, ts, cols, k)
		pushTick(t, called, ts, cols, k)
	}
	if counted.TotalResults() == 0 {
		t.Fatal("no results; the comparison is vacuous")
	}
	for _, q := range counted.plan.Queries {
		got, want := counted.ResultCount(q.ID), called.ResultCount(q.ID)
		if got != want || calls[q.ID] != want {
			t.Fatalf("query %d: %d counted at emission, %d delivered, %d callbacks", q.ID, got, want, calls[q.ID])
		}
	}
	if got, want := counted.TotalResults(), called.TotalResults(); got != want {
		t.Fatalf("TotalResults %d counted at emission, %d delivered", got, want)
	}
}

// BenchmarkDeliverCountOnly pushes one 256-row S batch and one 256-row T
// batch through the 1000-query Workload 2 plan per op, with no result
// callback (results are counted at emission) and with one installed
// (every result is delivered and handed to it once per query).
func BenchmarkDeliverCountOnly(b *testing.B) {
	for _, bc := range []struct {
		name string
		cb   func(int, *stream.Tuple)
	}{
		{"callback=nil", nil},
		{"callback=set", func(int, *stream.Tuple) {}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, params := w2Engine(b)
			e.OnResult = bc.cb
			const laps = 64
			ts, cols := w2Ticks(laps, params)
			for k := 0; k < laps; k++ {
				pushTick(b, e, ts, cols, k) // warm the window state and pools
			}
			lap := int64(2 * 256 * laps)
			before := e.TotalResults()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % laps
				if k == 0 {
					for j := range ts {
						for r := range ts[j] {
							ts[j][r] += lap
						}
					}
				}
				pushTick(b, e, ts, cols, k)
			}
			b.ReportMetric(float64(e.TotalResults()-before)/float64(b.N), "results/op")
		})
	}
}

// TestResultCountForwardOutlivesItsInput guards the release point of a tuple
// counted at emission. A projection's Owned output P feeds a selection
// that forwards P itself to a count-only edge, and a second projection
// that reads P afterwards and draws its own output from the tuple pool.
// Were P returned to the pool at its emission, that draw would hand P
// back and the projection would overwrite its own input: (a1, a0) would
// come out as (a1, a1) and the final filter would pass rows it must drop.
func TestResultCountForwardOutlivesItsInput(t *testing.T) {
	shared := func() *core.Logical {
		m := &expr.SchemaMap{Cols: []expr.Expr{expr.Col{I: 0}, expr.Col{I: 1}}}
		return core.ProjectL(m, core.Scan("S"))
	}
	forward := func() *core.Query {
		return core.NewQuery("fwd", core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 5}, shared()))
	}
	swapped := func() *core.Query {
		swap := &expr.SchemaMap{Cols: []expr.Expr{expr.Col{I: 1}, expr.Col{I: 0}}}
		return core.NewQuery("swap", core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 5}, core.ProjectL(swap, shared())))
	}
	for _, order := range []string{"fwd-first", "swap-first"} {
		t.Run(order, func(t *testing.T) {
			qs := []*core.Query{forward(), swapped()}
			if order == "swap-first" {
				qs[0], qs[1] = qs[1], qs[0]
			}
			e := optimizedEngine(t, map[string]core.SourceDecl{"S": {Schema: stream.MustSchema("S", "a", "b")}}, qs, false)
			for ts := int64(0); ts < 64; ts++ {
				if err := e.Push("S", stream.NewTuple(ts, ts%6, 10+ts)); err != nil {
					t.Fatal(err)
				}
			}
			if len(e.results) != 0 || e.pool.FreeCount() == 0 {
				t.Fatalf("%d counted tuples held after the drain, %d in the pool; want 0 and > 0", len(e.results), e.pool.FreeCount())
			}
			for _, q := range qs {
				want := int64(64)
				if q.Name == "swap" {
					want = 0 // a0 ≤ 5 on every row
				}
				if got := e.ResultCount(q.ID); got != want {
					t.Fatalf("%s: %d results, want %d", q.Name, got, want)
				}
			}
		})
	}
}
