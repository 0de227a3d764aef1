package shard

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/workload"
)

// buildPair lowers the same queries into a single-threaded reference
// engine and a sharded engine. The query objects are shared, so query IDs
// agree across the two plans.
func buildPair(t *testing.T, catalog map[string]core.SourceDecl, qs []*core.Query, channels bool, shards int) (*engine.Engine, *Engine) {
	t.Helper()
	build := func() *core.Physical {
		plan := core.NewPhysical(catalog)
		for _, q := range qs {
			if err := plan.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := rules.Optimize(plan, rules.Options{Channels: channels}); err != nil {
			t.Fatal(err)
		}
		return plan
	}
	ref, err := engine.New(build())
	if err != nil {
		t.Fatal(err)
	}
	// A small batch size exercises the hand-off path far more often than
	// the default.
	sh, err := New(build(), nil, Config{Shards: shards, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return ref, sh
}

// checkEquivalence pushes the same event sequence through both engines and
// requires identical per-query result counts.
func checkEquivalence(t *testing.T, catalog map[string]core.SourceDecl, qs []*core.Query, events []workload.Event, channels bool, shards int) {
	t.Helper()
	ref, sh := buildPair(t, catalog, qs, channels, shards)
	defer sh.Close()
	for i, ev := range events {
		tu := ev.Tuple
		if err := ref.Push(ev.Source, tu); err != nil {
			t.Fatal(err)
		}
		if err := sh.Push(ev.Source, int64(tu.TS), tu.Vals); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	if ref.TotalResults() == 0 {
		t.Fatal("workload produced no results; equivalence check is vacuous")
	}
	for _, q := range qs {
		want := ref.ResultCount(q.ID)
		got := sh.ResultCount(q.ID)
		if got != want {
			t.Fatalf("shards=%d channels=%v query %s: %d results, want %d\npartition plan:\n%s",
				shards, channels, q.Name, got, want, sh.PartitionPlan())
		}
	}
	if got, want := sh.TotalResults(), ref.TotalResults(); got != want {
		t.Fatalf("total results: %d, want %d", got, want)
	}
}

func shardCounts() []int { return []int{1, 2, 4} }

// Workload 1 (σ(S) ; T with right-side constants): the analysis must keep
// S partitioned and broadcast T.
func TestShardedEquivalenceWorkload1(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 300
	cqs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	events := p.GenStreams(6000)
	for _, channels := range []bool{false, true} {
		for _, n := range shardCounts() {
			checkEquivalence(t, p.Catalog(), cqs, events, channels, n)
		}
	}
}

// Workload 2 (S ; T and S µ T keyed on a0): both sources hash-partition.
func TestShardedEquivalenceWorkload2(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 150
	seqs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	events := p.GenStreams(4000)
	pm := workload.DefaultParams()
	pm.NumQueries = 60
	mus, err := workload.ToRUMOR(pm.Workload2Mu())
	if err != nil {
		t.Fatal(err)
	}
	muEvents := pm.GenStreams(3000)
	for _, channels := range []bool{false, true} {
		for _, n := range shardCounts() {
			checkEquivalence(t, p.Catalog(), seqs, events, channels, n)
			checkEquivalence(t, pm.Catalog(), mus, muEvents, channels, n)
		}
	}
}

// Workload 3 (Si ; T over sharable sources, keyed on a0).
func TestShardedEquivalenceWorkload3(t *testing.T) {
	const k = 8
	p := workload.DefaultParams()
	p.NumQueries = 200
	qs := p.Workload3(k)
	events := p.Workload3Rounds(k, 400)
	for _, channels := range []bool{false, true} {
		for _, n := range shardCounts() {
			checkEquivalence(t, p.Workload3Catalog(k), qs, events, channels, n)
		}
	}
}

// Hash partitioning must be in effect for Workload 2 (not just a safe
// broadcast fallback), and the load must actually spread across shards.
func TestShardedWorkload2ActuallyPartitions(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 100
	qs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	_, sh := buildPair(t, p.Catalog(), qs, false, 4)
	defer sh.Close()
	pp := sh.PartitionPlan()
	for _, src := range []string{"S", "T"} {
		if r := pp.Routes[src]; r.Mode != core.PartitionHash || r.Attr != 0 {
			t.Fatalf("%s route = %+v, want hash(a0)", src, r)
		}
	}
	events := p.GenStreams(4000)
	for _, ev := range events {
		if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, st := range sh.ShardStats() {
		total += st.Tuples
		if st.Tuples == 0 {
			t.Fatalf("shard %d received no tuples: %+v", st.Shard, sh.ShardStats())
		}
	}
	if total != int64(len(events)) {
		t.Fatalf("hash partitioning delivered %d tuples for %d events", total, len(events))
	}
}

// Concurrent pushers, drains and a final close must be data-race free
// (exercised under -race) and must not lose tuples.
func TestShardedConcurrentPushRace(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 50
	qs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	_, sh := buildPair(t, p.Catalog(), qs, false, 4)
	const perPusher = 2000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := "S"
			if g%2 == 1 {
				src = "T"
			}
			for i := 0; i < perPusher; i++ {
				ts := int64(i) // per-goroutine monotone; cross-goroutine order is unspecified
				if err := sh.Push(src, ts, []int64{int64(i % 100), int64(g), 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// A concurrent drain must coexist with pushers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sh.Drain(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	var tuples int64
	for _, st := range sh.ShardStats() {
		tuples += st.Tuples
	}
	if want := int64(4 * perPusher); tuples != want {
		t.Fatalf("replayed %d tuples, want %d", tuples, want)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sh.Push("S", 0, []int64{0}); err == nil {
		t.Fatal("Push after Close should fail")
	}
}

// TestShardedPushBatchEquivalence holds the router's row path to a
// one-shard run and to PushColumns, over Workload 1 and over a plan with
// hash, multicast, broadcast and round-robin sources. Each input's
// interleaved feed is cut into windows in which each source's rows go as
// calls of k rows, for k = 1, 3, 4 and 300. At 2 and 4 in-process shards
// and at 2 pipe-cluster shards, the calls pushed row by row, as PushBatch
// calls and as PushColumns calls must each give every query the count of
// a one-shard run that pushes the same rows one by one; so must the
// one-shard (inline) engine's PushBatch, which transposes each call into
// reused column scratch, and its PushColumns.
func TestShardedPushBatchEquivalence(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 100
	w1, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	mixCat, mixQs, mixEvents := mixedPlacementInputs(t)
	inputs := []struct {
		name   string
		cat    map[string]core.SourceDecl
		qs     []*core.Query
		events []workload.Event
		modes  []core.PartitionMode
	}{
		{"w1", p.Catalog(), w1, p.GenStreams(4000), nil},
		{"mixed", mixCat, mixQs, mixEvents, []core.PartitionMode{core.PartitionHash, core.PartitionMulticast, core.PartitionBroadcast}},
	}
	for _, in := range inputs {
		plan := buildTorturePlan(t, in.cat, in.qs, false)
		routes := map[core.PartitionMode]bool{}
		for _, r := range core.AnalyzePartition(plan).Routes {
			routes[r.Mode] = true
		}
		for _, m := range in.modes {
			if !routes[m] {
				t.Fatalf("%s: no source is routed %v", in.name, m)
			}
		}
		for _, k := range []int{1, 3, 4, 300} {
			calls := sourceCalls(in.events, k, len(in.cat))
			one, err := New(plan, nil, Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			pushCalls(t, one, calls, "rows")
			if one.TotalResults() == 0 {
				t.Fatalf("%s: no results; equivalence is vacuous", in.name)
			}
			for _, how := range []string{"rows", "batch", "columns"} {
				for _, d := range []struct {
					deploy string
					shards int
				}{{"inline", 1}, {"local", 2}, {"local", 4}, {"cluster", 2}} {
					if d.deploy == "inline" && how == "rows" {
						continue // the reference itself
					}
					var sh *Engine
					if d.deploy == "cluster" {
						_, sh = buildClusterPair(t, in.cat, in.qs, false, d.shards, &clusterHarness{}, Config{}, nil)
					} else if sh, err = New(plan, nil, Config{Shards: d.shards, BatchSize: 64}); err != nil {
						t.Fatal(err)
					}
					pushCalls(t, sh, calls, how)
					for _, q := range plan.Queries {
						if got, want := sh.ResultCount(q.ID), one.ResultCount(q.ID); got != want {
							t.Fatalf("%s k=%d %s/%d %s: query %s: %d results, one shard per row %d", in.name, k, d.deploy, d.shards, how, q.Name, got, want)
						}
					}
					if err := sh.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			one.Close()
		}
	}
}

// feedCall is one call's worth of rows of one source.
type feedCall struct {
	src  string
	rows []workload.Event
}

// sourceCalls cuts events into windows of k rows per source; within a
// window each source's rows, in order of first appearance, go as calls of
// at most k rows. The rows are stamped anew in call order, so timestamps
// stay non-decreasing across sources.
func sourceCalls(events []workload.Event, k, sources int) []feedCall {
	var calls []feedCall
	ts := int64(0)
	for off := 0; off < len(events); off += k * sources {
		bySrc := map[string][]workload.Event{}
		var order []string
		for _, ev := range events[off:min(off+k*sources, len(events))] {
			if bySrc[ev.Source] == nil {
				order = append(order, ev.Source)
			}
			bySrc[ev.Source] = append(bySrc[ev.Source], ev)
		}
		for _, src := range order {
			for i, ev := range bySrc[src] {
				ts++
				bySrc[src][i].Tuple = &stream.Tuple{TS: ts, Vals: ev.Tuple.Vals}
			}
		}
		for _, src := range order {
			for rows := bySrc[src]; len(rows) > 0; rows = rows[min(k, len(rows)):] {
				calls = append(calls, feedCall{src, rows[:min(k, len(rows))]})
			}
		}
	}
	return calls
}

// pushCalls pushes calls into sh row by row ("rows"), one PushBatch per
// call ("batch") or one PushColumns per call ("columns"), then drains.
func pushCalls(t *testing.T, sh *Engine, calls []feedCall, how string) {
	t.Helper()
	for _, c := range calls {
		ts := make([]int64, len(c.rows))
		vals := make([][]int64, len(c.rows))
		for i, ev := range c.rows {
			ts[i], vals[i] = ev.Tuple.TS, ev.Tuple.Vals
		}
		var err error
		switch how {
		case "rows":
			for i := 0; i < len(ts) && err == nil; i++ {
				err = sh.Push(c.src, ts[i], vals[i])
			}
		case "batch":
			err = sh.PushBatch(c.src, ts, vals)
		default:
			cols := make([][]int64, len(vals[0]))
			for a := range cols {
				cols[a] = make([]int64, len(ts))
				for i, row := range vals {
					cols[a][i] = row[a]
				}
			}
			err = sh.PushColumns(c.src, ts, cols)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", how, c.src, err)
		}
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
}

// Errors from unknown sources surface synchronously.
func TestShardedUnknownSource(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 10
	qs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	_, sh := buildPair(t, p.Catalog(), qs, false, 2)
	defer sh.Close()
	if err := sh.Push("NOPE", 0, []int64{1}); err == nil {
		t.Fatal("expected unknown-source error")
	}
}

// Regression: a global aggregate forces S to broadcast; the sequence
// S ; T then may not scatter T, or each shard's replica of an S instance
// would be consumed by that shard's own first event (';' consumes on
// match) and results would multiply by the shard count.
func TestShardedReplicatedSeqInstanceNotDuplicated(t *testing.T) {
	catalog := map[string]core.SourceDecl{
		"S": {Schema: streamSchema(t, "S")},
		"T": {Schema: streamSchema(t, "T")},
	}
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 0}})
	qs := []*core.Query{
		core.NewQuery("total", core.AggL(core.AggCount, 0, 1000, nil, core.Scan("S"))),
		core.NewQuery("q", core.SeqL(pred, 100, core.Scan("S"), core.Scan("T"))),
	}
	ref, sh := buildPair(t, catalog, qs, false, 4)
	defer sh.Close()
	push := func(src string, ts int64, vals []int64) {
		if err := ref.Push(src, &stream.Tuple{TS: ts, Vals: vals}); err != nil {
			t.Fatal(err)
		}
		if err := sh.Push(src, ts, vals); err != nil {
			t.Fatal(err)
		}
	}
	push("S", 0, []int64{1, 5})
	for ts := int64(1); ts <= 8; ts++ {
		push("T", ts, []int64{1, 9})
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if got, want := sh.ResultCount(q.ID), ref.ResultCount(q.ID); got != want {
			t.Fatalf("query %s: %d results, want %d\npartition plan:\n%s",
				q.Name, got, want, sh.PartitionPlan())
		}
	}
	if ref.ResultCount(1) != 1 {
		t.Fatalf("reference seq should fire exactly once, got %d", ref.ResultCount(1))
	}
}

func streamSchema(t *testing.T, name string) *stream.Schema {
	t.Helper()
	return stream.MustSchema(name, "a", "b")
}
