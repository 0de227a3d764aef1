package shard

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

// scatterEngine builds a sharded Workload 2 engine whose batches hold
// more rows than one routeColumns call routes, so with the pending buffers
// emptied after each call every run stays there.
func scatterEngine(tb testing.TB, shards int) *Engine {
	tb.Helper()
	prm := workload.DefaultParams()
	prm.NumQueries = 50
	qs, err := workload.ToRUMOR(prm.Workload2Seq())
	if err != nil {
		tb.Fatal(err)
	}
	p := core.NewPhysical(prm.Catalog())
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		tb.Fatal(err)
	}
	e, err := New(p, nil, Config{Shards: shards, BatchSize: 1 << 12})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	return e
}

// takeRuns removes the run entries routed since the last call, by shard,
// failing unless each shard got at most one.
func takeRuns(t *testing.T, e *Engine) []*cluster.Entry {
	t.Helper()
	ens := make([]*cluster.Entry, len(e.workers))
	for i, b := range e.pending {
		if len(b.entries) > 1 {
			t.Fatalf("shard %d: %d entries for one batch", i, len(b.entries))
		}
		for _, en := range b.entries {
			ens[i] = &en
		}
		b.reset()
	}
	return ens
}

// selectedRows gathers the rows of a run its selection names: every row
// when Sel is nil.
func selectedRows(run *cluster.Run) (ts []int64, cols [][]int64) {
	cols = make([][]int64, len(run.Cols))
	for row := range run.TS {
		if run.Sel != nil && run.Sel[row>>6]&(1<<uint(row&63)) == 0 {
			continue
		}
		ts = append(ts, run.TS[row])
		for a, col := range run.Cols {
			cols[a] = append(cols[a], col[row])
		}
	}
	return ts, cols
}

// scatterRef is the per-row-append scatter: each row goes to its
// destinations as routeColumns decides them, one append per row and
// column.
func scatterRef(e *Engine, sr srcRoute, ts []int64, cols [][]int64) []*cluster.Run {
	runs := make([]*cluster.Run, len(e.workers))
	add := func(shard, row int) {
		r := runs[shard]
		if r == nil {
			r = &cluster.Run{Cols: make([][]int64, len(cols))}
			runs[shard] = r
		}
		r.TS = append(r.TS, ts[row])
		for a := range cols {
			r.Cols[a] = append(r.Cols[a], cols[a][row])
		}
	}
	for row := range ts {
		if sr.mode != core.PartitionMulticast {
			add(e.shardOf(sr, cols[sr.attr][row]), row)
			continue
		}
		mask := sr.alwaysMask | sr.table[cols[sr.attr][row]]
		for mask != 0 {
			add(bits.TrailingZeros64(mask), row)
			mask &= mask - 1
		}
	}
	return runs
}

func TestRouteColumnsScatter(t *testing.T) {
	for _, shards := range []int{4, 65} {
		testRouteColumnsScatter(t, shards)
	}
}

// testRouteColumnsScatter runs the scatter cases on an engine of the given
// shard count. Past 64 shards multicast sources are broadcast (their masks
// cannot name every shard), so only hash and round-robin run there; the
// subtests carry the shard count in their name from then on.
func testRouteColumnsScatter(t *testing.T, shards int) {
	const rows, arity = 256, 10
	e := scatterEngine(t, shards)
	ts := make([]int64, rows)
	cols := make([][]int64, arity)
	for a := range cols {
		cols[a] = make([]int64, rows)
	}
	for i := range ts {
		ts[i] = int64(i)
		for a := range cols {
			cols[a][i] = int64((i*7 + a*3 + i*i) % 16)
		}
		cols[3][i] = int64(i * 37) // distinct keys, so hashing reaches every shard
	}
	hashed := e.part
	moved := hashed.WithMoves(map[int64][]int{3: {2}, 5: {0, 1, 3}, 9: {1, 2}, 10: {shards - 1}, 12: {0, shards - 1}})
	suffix := ""
	if shards > 64 {
		suffix = fmt.Sprintf("-%d-shards", shards)
	}
	for _, tc := range []struct {
		name string
		sr   srcRoute
		part *core.PartitionPlan
	}{
		{"hash", srcRoute{mode: core.PartitionHash, attr: 3}, hashed},
		{"round-robin", srcRoute{mode: core.PartitionRoundRobin}, hashed},
		{"multicast", srcRoute{mode: core.PartitionMulticast, attr: 1,
			table: map[int64]uint64{0: 0b0011, 4: 0b1000, 7: 0b1111}, alwaysMask: 0b0100}, hashed},
		{"multicast-drops", srcRoute{mode: core.PartitionMulticast, attr: 2,
			table: map[int64]uint64{1: 0b0001, 2: 0b0110}}, hashed},
		{"moved", srcRoute{mode: core.PartitionHash, attr: 0}, moved},
	} {
		if tc.sr.mode == core.PartitionMulticast && shards > 64 {
			continue
		}
		t.Run(tc.name+suffix, func(t *testing.T) {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.part = tc.part
			rr := e.rr
			e.routeColumns(tc.sr, ts, cols)
			got := takeRuns(t, e)
			gotRR := e.rr
			e.rr = rr
			want := scatterRef(e, tc.sr, ts, cols)
			if e.rr != gotRR {
				t.Fatalf("round-robin state advanced by %d, reference %d", gotRR-rr, e.rr-rr)
			}
			nonEmpty := 0
			for i := range want {
				en, w := got[i], want[i]
				if (en == nil) != (w == nil) {
					t.Fatalf("shard %d: entry %v, reference rows %v", i, en != nil, w != nil)
				}
				if w == nil {
					continue
				}
				nonEmpty++
				g := en.Run
				gts, gcols := selectedRows(g)
				if !slices.Equal(gts, w.TS) {
					t.Fatalf("shard %d ts %v, reference %v", i, gts, w.TS)
				}
				for a := range w.Cols {
					if !slices.Equal(gcols[a], w.Cols[a]) {
						t.Fatalf("shard %d column %d %v, reference %v", i, a, gcols[a], w.Cols[a])
					}
				}
				if len(g.TS) != len(ts) || &g.TS[0] != &ts[0] {
					t.Fatalf("shard %d: run does not share the batch's timestamps", i)
				}
				if en.Run.Rows() != len(w.TS) {
					t.Fatalf("shard %d: Rows() %d, reference %d", i, en.Run.Rows(), len(w.TS))
				}
			}
			if nonEmpty < 2 {
				t.Fatalf("only %d shards received rows; the case is vacuous", nonEmpty)
			}
			if tc.sr.mode != core.PartitionMulticast && want[shards-1] == nil {
				t.Fatalf("no rows reached the last shard (%d); the case is vacuous", shards-1)
			}
		})
	}
	e.part = hashed
}

// BenchmarkRouteColumns scatters one 256-row, 10-column batch of a hashed
// source across 2 shards per op. The pending buffers are emptied after each
// op, so no batch fills and the op is the router's scatter alone.
func BenchmarkRouteColumns(b *testing.B) {
	const rows, arity = 256, 10
	e := scatterEngine(b, 2)
	sr, ok := e.srcs["S"]
	if !ok || sr.mode != core.PartitionHash {
		b.Fatalf("S is not hash-routed: %+v", sr)
	}
	ts := make([]int64, rows)
	cols := make([][]int64, arity)
	for a := range cols {
		cols[a] = make([]int64, rows)
		for i := range cols[a] {
			cols[a][i] = int64((i*31 + a) % 1000)
		}
	}
	for i := range ts {
		ts[i] = int64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mu.Lock()
		e.routeColumns(sr, ts, cols)
		for _, b := range e.pending {
			b.reset()
		}
		e.mu.Unlock()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// TestWALRecycleAllocFree stages a batch, has the worker acknowledge it,
// and stages the next, which prunes the first: with the collector off,
// the cycle allocates nothing once a buffer is free, because a
// recycled buffer is kept for reuse with the run it built.
func TestWALRecycleAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := scatterEngine(t, 2)
	sr := e.srcs["S"]
	vals := make([]int64, sr.arity)
	e.mu.Lock()
	defer e.mu.Unlock()
	cycle := func() {
		e.appendRow(0, sr.id, 1, vals)
		e.stageShard(0)
		e.workers[0].completed.Store(e.walSeq[0])
	}
	for range 4 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocs per staged and recycled WAL batch", allocs)
	}
	if n := len(e.wal[0]); n != 1 {
		t.Fatalf("%d WAL records left, want the last one only", n)
	}
}

// TestRouterRowsAllocFree routes per-row pushes of two interleaved
// sources across 2 shards, so each source change opens a run, then
// stages every shard's buffer and has its worker acknowledge it. Every
// lap routes the same keys. With the collector off, a lap of 64 rows
// allocates nothing once the recycled buffers hold their runs: the router
// copies each row into a run its buffer owns and keeps no reference to
// the caller's values.
func TestRouterRowsAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := scatterEngine(t, 2)
	srs := []srcRoute{e.srcs["S"], e.srcs["T"]}
	vals := make([]int64, srs[0].arity)
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := int64(0)
	lap := func() {
		for row := range 64 {
			ts++
			vals[0] = int64(row * 37)
			e.routeRow(srs[row/3%2], ts, vals)
		}
		for shard := range e.workers {
			e.stageShard(shard)
			e.workers[shard].completed.Store(e.walSeq[shard])
		}
	}
	for range 8 {
		lap()
	}
	if allocs := testing.AllocsPerRun(100, lap); allocs != 0 {
		t.Fatalf("%v allocs per 64 routed rows", allocs)
	}
	var runs int
	for shard := range e.workers {
		rec := e.wal[shard][len(e.wal[shard])-1]
		runs += len(rec.b.entries)
		for _, en := range rec.b.entries {
			if en.Run.Sel != nil || len(en.Run.Cols) != len(vals) {
				t.Fatalf("shard %d: router run %+v", shard, en.Run)
			}
		}
	}
	if runs < 2 {
		t.Fatalf("%d runs in the last lap's batches, want a run per source change", runs)
	}
}
