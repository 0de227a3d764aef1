package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/workload"
)

// selKinds are the selections TestPushColumnsSelEquivalence pushes each
// call under: whether row i of a call is selected. sparse marks the one
// whose feeds may leave too few rows for any match.
var selKinds = []struct {
	name   string
	keep   func(i int) bool
	sparse bool
}{
	{"none", func(i int) bool { return false }, true},
	{"all", func(i int) bool { return true }, false},
	{"alternate", func(i int) bool { return i%2 == 0 }, false},
	{"one-per-word", func(i int) bool { return i%64 == (i/64*7)%64 }, true},
	// Rows [256, 512) are one whole ingest block with no row selected,
	// between selected blocks.
	{"empty-middle-block", func(i int) bool { return (i < 256 || i >= 512) && i%3 != 1 }, false},
}

// selectRows builds the bitmap of the rows keep selects and the gathered
// copy of those rows.
func selectRows(cp colPush, keep func(i int) bool) (sel []uint64, gathered colPush) {
	n := len(cp.ts)
	sel = make([]uint64, (n+63)/64)
	gathered = colPush{source: cp.source, cols: make([][]int64, len(cp.cols))}
	for i := range n {
		if !keep(i) {
			continue
		}
		sel[i>>6] |= 1 << uint(i&63)
		gathered.ts = append(gathered.ts, cp.ts[i])
		for a, col := range cp.cols {
			gathered.cols[a] = append(gathered.cols[a], col[i])
		}
	}
	return sel, gathered
}

// TestPushColumnsSelEquivalence holds PushColumnsSel to PushColumns of the
// rows its selection names: per-query result streams with a result
// callback, per-query counts without one. The plans are Workload 1,
// Workload 2 (;), the relational script with channels on (agg, join and
// project behind the block→scalar adapter), and Workload 3 over 70
// sources with channels on, where some sources' channel membership has
// spilled past one word and takes the per-row fallback. Every plan sees
// calls of more than 512 rows, so several ingest blocks share one call. A
// call that selects no row delivers no block.
func TestPushColumnsSelEquivalence(t *testing.T) {
	w1, w1qs := w1Queries(t, 200)
	w2 := workload.DefaultParams()
	w2.NumQueries = 120
	rel, err := cql.Parse(relScript(40))
	if err != nil {
		t.Fatal(err)
	}
	const k = 70
	w3 := workload.DefaultParams()
	w3.NumQueries = 200
	w3events := w3.Workload3Rounds(k, 600)
	for _, pc := range []struct {
		name     string
		catalog  map[string]core.SourceDecl
		qs       []*core.Query
		channels bool
		feed     []colPush
	}{
		{"w1", w1.Catalog(), w1qs, false, buildColFeed(w1.GenStreams(6000), 1200)},
		{"w2", w2.Catalog(), automatonQueries(t, w2.Workload2Seq()), false, buildColFeed(w2.GenStreams(6000), 1200)},
		{"rel", rel.Catalog, rel.Queries, true, buildColFeed(relEvents(6000), 1200)},
		{"w3-spilled", w3.Workload3Catalog(k), w3.Workload3(k), true, buildColFeed(w3events, len(w3events))},
	} {
		long := 0
		for _, cp := range pc.feed {
			long = max(long, len(cp.ts))
		}
		if long <= 512 {
			t.Fatalf("%s: longest call %d rows; no call spans three ingest blocks", pc.name, long)
		}
		spilled := false
		probe := optimizedEngine(t, pc.catalog, pc.qs, pc.channels)
		for src := range pc.catalog {
			si, _ := probe.lookupSource(src)
			_, inline := memberWordOf(si)
			spilled = spilled || !inline
		}
		if want := pc.name == "w3-spilled"; spilled != want {
			t.Fatalf("%s: a source membership spilled: %v, want %v", pc.name, spilled, want)
		}
		for _, kind := range selKinds {
			for _, callback := range []bool{true, false} {
				ref := optimizedEngine(t, pc.catalog, pc.qs, pc.channels)
				e := optimizedEngine(t, pc.catalog, pc.qs, pc.channels)
				lref, l := newResultLog(), newResultLog()
				if callback {
					ref.OnResult, e.OnResult = lref.record, l.record
				}
				for _, cp := range pc.feed {
					sel, gathered := selectRows(cp, kind.keep)
					if len(gathered.ts) > 0 {
						if err := ref.PushColumns(gathered.source, gathered.ts, gathered.cols); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.PushColumnsSel(cp.source, cp.ts, cp.cols, sel); err != nil {
						t.Fatal(err)
					}
				}
				if d := lref.diff(l); d != "" {
					t.Fatalf("%s/%s callback=%v: PushColumns vs PushColumnsSel diverged: %s", pc.name, kind.name, callback, d)
				}
				for q := range len(pc.qs) + 1 {
					if got, want := e.ResultCount(q), ref.ResultCount(q); got != want {
						t.Fatalf("%s/%s callback=%v: query %d count %d, want %d", pc.name, kind.name, callback, q, got, want)
					}
				}
				if got, want := e.TotalResults(), ref.TotalResults(); got != want {
					t.Fatalf("%s/%s callback=%v: total results %d, want %d", pc.name, kind.name, callback, got, want)
				}
				if !kind.sparse && ref.TotalResults() == 0 {
					t.Fatalf("%s/%s: no results; the case is vacuous", pc.name, kind.name)
				}
				if kind.name == "none" && e.BlocksProcessed() != 0 {
					t.Fatalf("%s: %d blocks processed with no row selected", pc.name, e.BlocksProcessed())
				}
			}
		}
	}
}
