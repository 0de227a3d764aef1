// Benchmarks regenerating a representative operating point of every table
// and figure in the paper's evaluation (§5). Full sweeps (all x positions,
// both series) are produced by cmd/rumorbench; these testing.B benchmarks
// measure the steady-state per-event cost at each figure's default
// parameters (Table 3), plus ablations that isolate the effect of the
// m-rules and micro-benchmarks for the individual m-ops.
//
//	go test -bench=. -benchmem
package rumor_test

import (
	"fmt"
	"testing"

	"repro/internal/automaton"
	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/workload"
)

// feedLoop pushes b.N events, recycling the generated slice with strictly
// increasing timestamps so windows keep sliding.
func feedLoop(b *testing.B, events []workload.Event, push func(src string, t *stream.Tuple)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		push(ev.Source, &stream.Tuple{TS: int64(i), Vals: ev.Tuple.Vals})
	}
}

func rumorEngine(b *testing.B, p workload.Params, aqs []*automaton.Query, channels bool) *engine.Engine {
	b.Helper()
	cqs, err := workload.ToRUMOR(aqs)
	if err != nil {
		b.Fatal(err)
	}
	e, err := bench.BuildRUMOR(p.Catalog(), cqs, channels)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func cayugaEngine(b *testing.B, p workload.Params, aqs []*automaton.Query) *automaton.Engine {
	b.Helper()
	e := automaton.NewEngine(p.Schemas())
	for _, q := range aqs {
		if _, err := e.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// ---------------------------------------------------------------------------
// Figure 9: Workload 1 (AN + FR index), default Table 3 parameters
// ---------------------------------------------------------------------------

func BenchmarkFig9aWorkload1RUMOR(b *testing.B) {
	p := workload.DefaultParams()
	e := rumorEngine(b, p, p.Workload1(), false)
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFig9aWorkload1RUMORColumns drives the same operating point
// through the columnar ingest path: the trace is pre-transposed into
// per-source column windows and pushed via PushColumns onto the
// vectorized block path (timestamps are rewritten per iteration so the
// windows keep sliding).
func BenchmarkFig9aWorkload1RUMORColumns(b *testing.B) {
	const rows = 256
	p := workload.DefaultParams()
	e := rumorEngine(b, p, p.Workload1(), false)
	events := p.GenStreams(50000)
	type win struct {
		src  string
		cols [][]int64
	}
	var wins []win
	for off := 0; off+2*rows <= len(events); off += 2 * rows {
		bySrc := map[string][][]int64{}
		for _, ev := range events[off : off+2*rows] {
			cols := bySrc[ev.Source]
			if cols == nil {
				cols = make([][]int64, p.NumAttrs)
				bySrc[ev.Source] = cols
			}
			for a, v := range ev.Tuple.Vals {
				cols[a] = append(cols[a], v) // outer slice is shared with the map value
			}
		}
		for _, src := range []string{"S", "T"} {
			if cols := bySrc[src]; cols != nil {
				wins = append(wins, win{src: src, cols: cols})
			}
		}
	}
	ts := make([]int64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i, w := 0, 0; i < b.N; w++ {
		cur := wins[w%len(wins)]
		n := min(len(cur.cols[0]), b.N-i)
		for j := 0; j < n; j++ {
			ts[j] = int64(i + j)
		}
		cols := cur.cols
		if n < len(cols[0]) {
			cols = make([][]int64, len(cur.cols))
			for a := range cols {
				cols[a] = cur.cols[a][:n]
			}
		}
		if err := e.PushColumns(cur.src, ts[:n], cols); err != nil {
			b.Fatal(err)
		}
		i += n
	}
}

func BenchmarkFig9aWorkload1Cayuga(b *testing.B) {
	p := workload.DefaultParams()
	e := cayugaEngine(b, p, p.Workload1())
	events := p.GenStreams(50000)
	feedLoop(b, events, e.Process)
}

func BenchmarkFig9bSelectiveConstants(b *testing.B) {
	p := workload.DefaultParams()
	p.ConstDomain = 10000 // more selective predicates than the default
	e := rumorEngine(b, p, p.Workload1(), false)
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig9cLargeWindowDomain(b *testing.B) {
	p := workload.DefaultParams()
	p.WindowDomain = 100000
	e := rumorEngine(b, p, p.Workload1(), false)
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig9dZipf2(b *testing.B) {
	p := workload.DefaultParams()
	p.Zipf = 2.0 // maximal query commonality
	e := rumorEngine(b, p, p.Workload1(), false)
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 10(a,b): Workload 2 (AI index)
// ---------------------------------------------------------------------------

func BenchmarkFig10aWorkload2SeqRUMOR(b *testing.B) {
	p := workload.DefaultParams()
	e := rumorEngine(b, p, p.Workload2Seq(), false)
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig10aWorkload2SeqCayuga(b *testing.B) {
	p := workload.DefaultParams()
	e := cayugaEngine(b, p, p.Workload2Seq())
	events := p.GenStreams(50000)
	feedLoop(b, events, e.Process)
}

func BenchmarkFig10bWorkload2MuRUMOR(b *testing.B) {
	p := workload.DefaultParams()
	p.NumQueries = 200 // µ is the expensive operator (the paper's absolutes are lower)
	e := rumorEngine(b, p, p.Workload2Mu(), false)
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig10bWorkload2MuCayuga(b *testing.B) {
	p := workload.DefaultParams()
	p.NumQueries = 200
	e := cayugaEngine(b, p, p.Workload2Mu())
	events := p.GenStreams(50000)
	feedLoop(b, events, e.Process)
}

// ---------------------------------------------------------------------------
// Figure 10(c,d): Workload 3 — channels. One op = one round of k+1 logical
// events (k sharable S tuples of identical content + one T tuple).
// ---------------------------------------------------------------------------

func benchW3(b *testing.B, channels bool) {
	const k = 10
	p := workload.DefaultParams()
	p.NumQueries = 1000
	qs := p.Workload3(k)
	e, err := bench.BuildRUMOR(p.Workload3Catalog(k), qs, channels)
	if err != nil {
		b.Fatal(err)
	}
	events := p.Workload3Rounds(k, 5000)
	perRound := k + 1
	nRounds := len(events) / perRound
	full := bitset.New(k)
	for i := 0; i < k; i++ {
		full.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i % nRounds) * perRound
		ts := int64(i) * int64(perRound)
		if channels {
			ev := events[base]
			t := &stream.Tuple{TS: ts, Vals: ev.Tuple.Vals, Member: full}
			if err := e.Push("S1", t); err != nil {
				b.Fatal(err)
			}
		} else {
			for j := 0; j < k; j++ {
				ev := events[base+j]
				t := &stream.Tuple{TS: ts + int64(j), Vals: ev.Tuple.Vals}
				if err := e.Push(ev.Source, t); err != nil {
					b.Fatal(err)
				}
			}
		}
		tev := events[base+k]
		t := &stream.Tuple{TS: ts + int64(k), Vals: tev.Tuple.Vals}
		if err := e.Push("T", t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10cW3WithChannel(b *testing.B) { benchW3(b, true) }

func BenchmarkFig10cW3WithoutChannel(b *testing.B) { benchW3(b, false) }

func BenchmarkFig10dCapacity25(b *testing.B) {
	const k = 25
	p := workload.DefaultParams()
	p.NumQueries = 1000
	qs := p.Workload3(k)
	e, err := bench.BuildRUMOR(p.Workload3Catalog(k), qs, true)
	if err != nil {
		b.Fatal(err)
	}
	events := p.Workload3Rounds(k, 2000)
	perRound := k + 1
	nRounds := len(events) / perRound
	full := bitset.New(k)
	for i := 0; i < k; i++ {
		full.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i % nRounds) * perRound
		ts := int64(i) * int64(perRound)
		ev := events[base]
		if err := e.Push("S1", &stream.Tuple{TS: ts, Vals: ev.Tuple.Vals, Member: full}); err != nil {
			b.Fatal(err)
		}
		tev := events[base+k]
		if err := e.Push("T", &stream.Tuple{TS: ts + int64(k), Vals: tev.Tuple.Vals}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 11: hybrid queries on the perfmon trace (D1 substitute)
// ---------------------------------------------------------------------------

func benchHybrid(b *testing.B, channels bool, n int, sel float64) {
	qs := workload.DefaultHybrid(n, sel).Queries()
	e, err := bench.BuildRUMOR(workload.PerfCatalog(), qs, channels)
	if err != nil {
		b.Fatal(err)
	}
	events := workload.D1(300).Events()
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkFig11aHybridWithChannel(b *testing.B)    { benchHybrid(b, true, 10, 0.5) }
func BenchmarkFig11aHybridWithoutChannel(b *testing.B) { benchHybrid(b, false, 10, 0.5) }
func BenchmarkFig11bHighSelWithChannel(b *testing.B)   { benchHybrid(b, true, 10, 0.9) }
func BenchmarkFig11bHighSelWithoutChannel(b *testing.B) {
	benchHybrid(b, false, 10, 0.9)
}

// ---------------------------------------------------------------------------
// Ablation: the same workload with m-rules disabled (naive plan) vs the
// optimized plan — the headline value of rule-based MQO.
// ---------------------------------------------------------------------------

func benchW1Ablation(b *testing.B, optimize bool) {
	p := workload.DefaultParams()
	p.NumQueries = 200 // naive plans evaluate every query separately
	cqs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	plan := core.NewPhysical(p.Catalog())
	for _, q := range cqs {
		if err := plan.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	if optimize {
		if err := rules.Optimize(plan, rules.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	e, err := engine.New(plan)
	if err != nil {
		b.Fatal(err)
	}
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkAblationW1NaivePlan(b *testing.B)     { benchW1Ablation(b, false) }
func BenchmarkAblationW1OptimizedPlan(b *testing.B) { benchW1Ablation(b, true) }

// ---------------------------------------------------------------------------
// Sharded runtime: parallel scaling over Workloads 1–3. Wall-clock
// speedup needs one core per shard; the traced w2_sharded2 row of the
// benchmark ledger reports the per-shard busy split
// (shard.worker_busy_max_frac).
// ---------------------------------------------------------------------------

// benchSharded drives b.N events through a sharded engine (ingest + final
// drain timed).
func benchSharded(b *testing.B, catalog map[string]core.SourceDecl, qs []*core.Query, events []workload.Event, shards int) {
	b.Helper()
	plan := core.NewPhysical(catalog)
	for _, q := range qs {
		if err := plan.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := rules.Optimize(plan, rules.Options{}); err != nil {
		b.Fatal(err)
	}
	e, err := shard.New(plan, nil, shard.Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		if err := e.Push(ev.Source, int64(i), ev.Tuple.Vals); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

func benchShardedW1(b *testing.B, shards int) {
	p := workload.DefaultParams()
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	benchSharded(b, p.Catalog(), qs, p.GenStreams(50000), shards)
}

func BenchmarkShardedFig9aW1Shards1(b *testing.B) { benchShardedW1(b, 1) }
func BenchmarkShardedFig9aW1Shards2(b *testing.B) { benchShardedW1(b, 2) }
func BenchmarkShardedFig9aW1Shards4(b *testing.B) { benchShardedW1(b, 4) }

func benchShardedW2(b *testing.B, shards int) {
	p := workload.DefaultParams()
	qs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		b.Fatal(err)
	}
	benchSharded(b, p.Catalog(), qs, p.GenStreams(50000), shards)
}

func BenchmarkShardedW2SeqShards1(b *testing.B) { benchShardedW2(b, 1) }
func BenchmarkShardedW2SeqShards4(b *testing.B) { benchShardedW2(b, 4) }

func benchShardedW3(b *testing.B, shards int) {
	const k = 10
	p := workload.DefaultParams()
	benchSharded(b, p.Workload3Catalog(k), p.Workload3(k), p.Workload3Rounds(k, 5000), shards)
}

func BenchmarkShardedW3Shards1(b *testing.B) { benchShardedW3(b, 1) }
func BenchmarkShardedW3Shards4(b *testing.B) { benchShardedW3(b, 4) }

// ---------------------------------------------------------------------------
// Micro-benchmarks for individual m-ops
// ---------------------------------------------------------------------------

// BenchmarkMicroPredicateIndex: 10 000 equality selections over one stream
// collapsed into one predicate-indexed m-op ([10,16]).
func BenchmarkMicroPredicateIndex(b *testing.B) {
	sys := newSelectSystem(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Push("S", int64(i), int64(i%10000), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func newSelectSystem(b *testing.B, n int) *sysWrap {
	b.Helper()
	p := workload.DefaultParams()
	p.NumQueries = n
	var qs []*core.Query
	for i := 0; i < n; i++ {
		qs = append(qs, core.NewQuery(fmt.Sprintf("q%d", i),
			core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, core.Scan("S"))))
	}
	cat := map[string]core.SourceDecl{"S": {Schema: stream.MustSchema("S", "a", "b")}}
	e, err := bench.BuildRUMOR(cat, qs, false)
	if err != nil {
		b.Fatal(err)
	}
	return &sysWrap{e: e}
}

type sysWrap struct{ e *engine.Engine }

func (s *sysWrap) Push(src string, ts int64, vals ...int64) error {
	return s.e.Push(src, &stream.Tuple{TS: ts, Vals: vals})
}

// BenchmarkMicroSharedJoin: 100 equi-joins with different windows sharing
// one state ([12]).
func BenchmarkMicroSharedJoin(b *testing.B) {
	var qs []*core.Query
	for i := 0; i < 100; i++ {
		qs = append(qs, core.NewQuery(fmt.Sprintf("j%d", i),
			core.JoinL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, int64(10+i), core.Scan("S"), core.Scan("T"))))
	}
	cat := map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", "a", "b")},
		"T": {Schema: stream.MustSchema("T", "a", "b")},
	}
	e, err := bench.BuildRUMOR(cat, qs, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := "S"
		if i%2 == 1 {
			src = "T"
		}
		if err := e.Push(src, &stream.Tuple{TS: int64(i), Vals: []int64{int64(i % 500), 0}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSharedAgg: 50 aggregations (same function/window, varied
// group-by) sharing one m-op ([22]).
func BenchmarkMicroSharedAgg(b *testing.B) {
	var qs []*core.Query
	for i := 0; i < 50; i++ {
		gb := []int{0}
		if i%2 == 1 {
			gb = nil
		}
		qs = append(qs, core.NewQuery(fmt.Sprintf("a%d", i),
			core.AggL(core.AggAvg, 1, 100, gb, core.Scan("S"))))
	}
	cat := map[string]core.SourceDecl{"S": {Schema: stream.MustSchema("S", "a", "b")}}
	e, err := bench.BuildRUMOR(cat, qs, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Push("S", &stream.Tuple{TS: int64(i), Vals: []int64{int64(i % 16), int64(i % 97)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationW1NoSeqMerge isolates the AN-index m-rule: selections
// are still predicate-indexed, but the ; operators stay in separate m-ops,
// so every T tuple is dispatched to every pattern query's node.
func BenchmarkAblationW1NoSeqMerge(b *testing.B) {
	p := workload.DefaultParams()
	p.NumQueries = 200
	cqs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	plan := core.NewPhysical(p.Catalog())
	for _, q := range cqs {
		if err := plan.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	partial := &rules.Optimizer{Rules: []rules.Rule{
		rules.CSE{},
		rules.MergeSameInput{Kind: core.KindSelect},
	}}
	if _, err := partial.Run(plan); err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(plan)
	if err != nil {
		b.Fatal(err)
	}
	events := p.GenStreams(50000)
	feedLoop(b, events, func(src string, t *stream.Tuple) {
		if err := e.Push(src, t); err != nil {
			b.Fatal(err)
		}
	})
}
