package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/workload"
)

// optimizedEngine plans the queries, runs the rule engine and lowers the
// optimized plan.
func optimizedEngine(tb testing.TB, catalog map[string]core.SourceDecl, qs []*core.Query, channels bool) *Engine {
	tb.Helper()
	p := core.NewPhysical(catalog)
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{Channels: channels}); err != nil {
		tb.Fatal(err)
	}
	e, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// w1Queries is the Workload 1 query set over n queries.
func w1Queries(tb testing.TB, n int) (workload.Params, []*core.Query) {
	tb.Helper()
	p := workload.DefaultParams()
	p.NumQueries = n
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		tb.Fatal(err)
	}
	return p, qs
}

// resultLog collects per-query result streams in arrival order, both as
// readable keys (for diffs) and as content hashes.
type resultLog struct {
	keys   map[int][]string
	hashes map[int][]uint64
}

func newResultLog() *resultLog {
	return &resultLog{keys: map[int][]string{}, hashes: map[int][]uint64{}}
}

func (r *resultLog) record(q int, t *stream.Tuple) {
	r.keys[q] = append(r.keys[q], t.ContentKey())
	r.hashes[q] = append(r.hashes[q], t.ContentHash())
}

func (r *resultLog) diff(o *resultLog) string {
	for q, ks := range r.keys {
		os := o.keys[q]
		if len(ks) != len(os) {
			return fmt.Sprintf("query %d: %d vs %d results", q, len(ks), len(os))
		}
		for i := range ks {
			if ks[i] != os[i] {
				return fmt.Sprintf("query %d result %d: %q vs %q", q, i, ks[i], os[i])
			}
			if r.hashes[q][i] != o.hashes[q][i] {
				return fmt.Sprintf("query %d result %d: ContentHash mismatch for equal keys", q, i)
			}
		}
	}
	for q := range o.keys {
		if _, ok := r.keys[q]; !ok && len(o.keys[q]) > 0 {
			return fmt.Sprintf("query %d: results only in second run", q)
		}
	}
	return ""
}

// feedPush drives events one Push at a time.
func feedPush(t *testing.T, e *Engine, events []workload.Event) {
	t.Helper()
	for i, ev := range events {
		if err := e.Push(ev.Source, &stream.Tuple{TS: int64(i), Vals: ev.Tuple.Vals}); err != nil {
			t.Fatal(err)
		}
	}
}

// feedBatch drives the same events as the runs a System.PushBatch call
// of each maximal stretch of consecutive same-source events hands the
// engine (cross-source order preserved): the stretch transposed into
// columns and pushed through PushColumns. Stretches shorter than
// blockMinRows take the scalar path.
func feedBatch(t *testing.T, e *Engine, events []workload.Event) {
	t.Helper()
	i := 0
	for i < len(events) {
		j := i + 1
		for j < len(events) && events[j].Source == events[i].Source {
			j++
		}
		ts := make([]int64, 0, j-i)
		cols := make([][]int64, len(events[i].Tuple.Vals))
		for k := i; k < j; k++ {
			ts = append(ts, int64(k))
			for a, v := range events[k].Tuple.Vals {
				cols[a] = append(cols[a], v)
			}
		}
		if err := e.PushColumns(events[i].Source, ts, cols); err != nil {
			t.Fatal(err)
		}
		i = j
	}
}

// checkBatchEquivalence runs the same query set over the same event
// sequence once with per-tuple Push and once as PushBatch runs and requires
// byte-identical per-query result streams.
func checkBatchEquivalence(t *testing.T, catalog map[string]core.SourceDecl, qs []*core.Query, events []workload.Event, channels bool) {
	t.Helper()
	one := optimizedEngine(t, catalog, qs, channels)
	two := optimizedEngine(t, catalog, qs, channels)
	lone, ltwo := newResultLog(), newResultLog()
	one.OnResult = lone.record
	two.OnResult = ltwo.record
	feedPush(t, one, events)
	feedBatch(t, two, events)
	if d := lone.diff(ltwo); d != "" {
		t.Fatalf("channels=%v: Push vs PushBatch diverged: %s", channels, d)
	}
	if one.TotalResults() == 0 {
		t.Fatal("workload produced no results; equivalence check is vacuous")
	}
	if one.TotalResults() != two.TotalResults() {
		t.Fatalf("total results: %d vs %d", one.TotalResults(), two.TotalResults())
	}
}

// automatonQueries translates a Cayuga query set to RUMOR queries.
func automatonQueries(t *testing.T, aqs []*automaton.Query) []*core.Query {
	t.Helper()
	qs, err := workload.ToRUMOR(aqs)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func TestPushBatchEquivalenceWorkload1(t *testing.T) {
	for _, channels := range []bool{false, true} {
		p, qs := w1Queries(t, 300)
		checkBatchEquivalence(t, p.Catalog(), qs, p.GenStreams(6000), channels)
	}
}

func TestPushBatchEquivalenceWorkload2(t *testing.T) {
	for _, channels := range []bool{false, true} {
		p := workload.DefaultParams()
		p.NumQueries = 150
		checkBatchEquivalence(t, p.Catalog(), automatonQueries(t, p.Workload2Seq()), p.GenStreams(4000), channels)
		pm := workload.DefaultParams()
		pm.NumQueries = 60
		checkBatchEquivalence(t, pm.Catalog(), automatonQueries(t, pm.Workload2Mu()), pm.GenStreams(3000), channels)
	}
}

func TestPushBatchEquivalenceWorkload3(t *testing.T) {
	const k = 8
	for _, channels := range []bool{false, true} {
		p := workload.DefaultParams()
		p.NumQueries = 200
		checkBatchEquivalence(t, p.Workload3Catalog(k), p.Workload3(k), p.Workload3Rounds(k, 400), channels)
	}
}

// colPush is one precomputed PushColumns call of a columnar feed.
type colPush struct {
	source string
	ts     []int64
	cols   [][]int64
}

// buildColFeed groups events into windows and transposes each window's
// per-source runs into column batches, preserving per-source timestamp
// order. PushColumns borrows the slices only for the duration of the
// drain, so one feed serves every engine.
func buildColFeed(events []workload.Event, window int) []colPush {
	var feed []colPush
	for off := 0; off < len(events); off += window {
		end := min(off+window, len(events))
		bySource := make(map[string][]int)
		var order []string
		for i := off; i < end; i++ {
			src := events[i].Source
			if _, ok := bySource[src]; !ok {
				order = append(order, src)
			}
			bySource[src] = append(bySource[src], i)
		}
		for _, src := range order {
			idx := bySource[src]
			arity := len(events[idx[0]].Tuple.Vals)
			cp := colPush{source: src, ts: make([]int64, len(idx)), cols: make([][]int64, arity)}
			for a := range cp.cols {
				cp.cols[a] = make([]int64, len(idx))
			}
			for row, i := range idx {
				cp.ts[row] = events[i].Tuple.TS
				for a, v := range events[i].Tuple.Vals {
					cp.cols[a][row] = v
				}
			}
			feed = append(feed, cp)
		}
	}
	return feed
}

// feedColumns drives a columnar feed through PushColumns.
func feedColumns(tb testing.TB, e *Engine, feed []colPush) {
	tb.Helper()
	for _, cp := range feed {
		if err := e.PushColumns(cp.source, cp.ts, cp.cols); err != nil {
			tb.Fatal(err)
		}
	}
}

// feedRows drives the rows of a columnar feed through per-row Push, in
// feed order: the reference feedColumns is held to.
func feedRows(tb testing.TB, e *Engine, feed []colPush) {
	tb.Helper()
	for _, cp := range feed {
		for i, ts := range cp.ts {
			t := &stream.Tuple{TS: ts, Vals: make([]int64, len(cp.cols))}
			for a, col := range cp.cols {
				t.Vals[a] = col[i]
			}
			if err := e.Push(cp.source, t); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// callSizes is the equivalence sweep of PushColumns call sizes: one-row
// calls (every adapter and pool edge case per row), two interior sizes,
// the block cap, and calls whose several ingest blocks share one drain.
var callSizes = []int{1, 16, 64, 256, 1000}

// checkBlockEquivalence feeds the events, grouped into windows of each
// sweep size, once through PushColumns (one call per same-source run of a
// window) and once row by row through Push, requiring byte-identical
// per-query result streams and equal result totals.
func checkBlockEquivalence(t *testing.T, catalog map[string]core.SourceDecl, qs []*core.Query, events []workload.Event, channels bool) {
	t.Helper()
	for _, size := range callSizes {
		feed := buildColFeed(events, size)
		ref := optimizedEngine(t, catalog, qs, channels)
		lref := newResultLog()
		ref.OnResult = lref.record
		feedRows(t, ref, feed)
		if ref.TotalResults() == 0 {
			t.Fatal("workload produced no results; equivalence check is vacuous")
		}
		e := optimizedEngine(t, catalog, qs, channels)
		l := newResultLog()
		e.OnResult = l.record
		feedColumns(t, e, feed)
		if d := lref.diff(l); d != "" {
			t.Fatalf("call size %d: Push vs PushColumns diverged: %s", size, d)
		}
		if got, want := e.TotalResults(), ref.TotalResults(); got != want {
			t.Fatalf("call size %d: total results %d, want %d", size, got, want)
		}
	}
}

func TestBlockEquivalenceWorkload1(t *testing.T) {
	for _, channels := range []bool{false, true} {
		p, qs := w1Queries(t, 200)
		checkBlockEquivalence(t, p.Catalog(), qs, p.GenStreams(5000), channels)
	}
}

func TestBlockEquivalenceWorkload2(t *testing.T) {
	for _, channels := range []bool{false, true} {
		p := workload.DefaultParams()
		p.NumQueries = 120
		checkBlockEquivalence(t, p.Catalog(), automatonQueries(t, p.Workload2Seq()), p.GenStreams(4000), channels)
		pm := workload.DefaultParams()
		pm.NumQueries = 50
		checkBlockEquivalence(t, pm.Catalog(), automatonQueries(t, pm.Workload2Mu()), pm.GenStreams(3000), channels)
	}
}

func TestBlockEquivalenceWorkload3(t *testing.T) {
	const k = 8
	for _, channels := range []bool{false, true} {
		p := workload.DefaultParams()
		p.NumQueries = 200
		checkBlockEquivalence(t, p.Workload3Catalog(k), p.Workload3(k), p.Workload3Rounds(k, 400), channels)
	}
}

// allocsPerEvent switches telemetry to enabled, runs warm untimed, then
// returns the heap allocations of measure divided by events. The collector
// is off while measure runs: a collection empties the tuple sync.Pool,
// and how many run inside the window depends on timing, so the refills
// would make the count vary by a few mallocs from run to run.
func allocsPerEvent(enabled bool, events int, warm, measure func()) float64 {
	prev := obs.Enabled()
	obs.Enable(enabled)
	defer obs.Enable(prev)
	warm()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	measure()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(events)
}

// lowestOf3 returns the lowest of three passes. The runtime can start an
// OS thread when the world restarts after ReadMemStats, and the thread's
// few heap objects land in the window by chance; the extra count only
// ever adds, so the lowest pass is the engine's own.
func lowestOf3(pass func() float64) float64 {
	return min(pass(), pass(), pass())
}

// obsPass feeds a fresh Workload 1 engine 4000 events through Push and
// returns allocs/event after a warm-up tenth, the lowest of three passes.
// A fresh engine per pass keeps the modes structurally identical (same
// plan, empty state at the same point).
func obsPass(t *testing.T, queries int, enabled bool) float64 {
	return lowestOf3(func() float64 { return obsPassOnce(t, queries, enabled) })
}

func obsPassOnce(t *testing.T, queries int, enabled bool) float64 {
	p, qs := w1Queries(t, queries)
	e := optimizedEngine(t, p.Catalog(), qs, false)
	events := p.GenStreams(4000)
	warm := len(events) / 10
	push := func(evs []workload.Event) func() {
		return func() {
			for _, ev := range evs {
				if err := e.Push(ev.Source, ev.Tuple); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return allocsPerEvent(enabled, len(events)-warm, push(events[:warm]), push(events[warm:]))
}

// blockAllocPass is the columnar counterpart of obsPass: the
// window-grouped feed, whose calls span several blocks, through
// PushColumns, or row by row through Push when rows is set.
func blockAllocPass(t *testing.T, queries int, rows, enabled bool) float64 {
	return lowestOf3(func() float64 { return blockAllocPassOnce(t, queries, rows, enabled) })
}

func blockAllocPassOnce(t *testing.T, queries int, rows, enabled bool) float64 {
	p, qs := w1Queries(t, queries)
	e := optimizedEngine(t, p.Catalog(), qs, false)
	feed := buildColFeed(p.GenStreams(4000), 512)
	push := feedColumns
	if rows {
		push = feedRows
	}
	warm := len(feed) / 10
	measured := 0
	for _, cp := range feed[warm:] {
		measured += len(cp.ts)
	}
	return allocsPerEvent(enabled, measured,
		func() { push(t, e, feed[:warm]) },
		func() { push(t, e, feed[warm:]) })
}

// The telemetry hot path must be allocation-free: feeding the identical
// Workload 1 event sequence through two fresh engines, metrics disabled
// and enabled, must malloc exactly the same number of times at every
// query count. Timing is noisy on shared machines; allocation counts are
// deterministic.
func TestObsOverheadAllocIdentical(t *testing.T) {
	for _, queries := range []int{10, 50, 100} {
		t.Run(fmt.Sprintf("q=%d", queries), func(t *testing.T) {
			off, on := obsPass(t, queries, false), obsPass(t, queries, true)
			if on != off {
				t.Fatalf("allocs/event differ with metrics enabled: off=%.6f on=%.6f", off, on)
			}
			if off == 0 {
				t.Fatal("measured zero allocations per event; the pass measured nothing")
			}
		})
	}
}

// The block path must keep the telemetry contract too: obs on vs off
// malloc exactly the same number of times, and the block path must not
// allocate more per event than per-row Push of the same rows.
func TestBlockPathAllocIdentity(t *testing.T) {
	off := blockAllocPass(t, 50, false, false)
	on := blockAllocPass(t, 50, false, true)
	if on != off {
		t.Fatalf("block path allocs/event differ with metrics enabled: off=%.6f on=%.6f", off, on)
	}
	if rows := blockAllocPass(t, 50, true, false); off > rows {
		t.Fatalf("block path allocates more than per-row Push: block=%.6f rows=%.6f", off, rows)
	}
}
