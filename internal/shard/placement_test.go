package shard

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faultpoint"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
)

var updatePlacement = flag.Bool("update", false, "rewrite internal/shard/testdata/placement.golden")

// TestStatePlacementGolden pins where rebalance, recovery and restore put
// stored operator state. For every scenario it records the distribution of
// each stateful side before and after, the stored item count of every
// (op, side) on every replica, the operation's stats and the total result
// count once the rest of the stream has run. Between them the scenarios
// take every branch of the placement rule: keyed state re-split under a
// key overlay, keyed state made replicated and replicated state made keyed
// by live adds, replicated state collapsed to unpartitioned, recovery of
// the first and of a middle shard, and restore into fewer, more and the
// same number of shards. Run with -update to rewrite the golden file.
func TestStatePlacementGolden(t *testing.T) {
	var out strings.Builder
	seen := make(map[string]bool)
	placementOverlay(t, &out, seen)
	placementLiveKeyedToReplicated(t, &out, seen)
	placementLiveReplicatedToKeyed(t, &out, seen)
	placementReplicatedToAny(t, &out, seen)
	for _, dead := range []int{0, 2} {
		placementRecover(t, &out, seen, dead)
	}
	placementRestore(t, &out, seen, 4, 3)
	placementRestore(t, &out, seen, 2, 5)
	placementRestore(t, &out, seen, 4, 4)
	for _, want := range []string{
		"rebalance keyed->keyed", "overlay", "live keyed->replicated", "live replicated->keyed",
		"rebalance replicated->any",
		"recover keyed", "recover multicast", "recover replicated", "recover any",
		"restore keyed", "restore replicated", "restore any",
	} {
		if !seen[want] {
			t.Errorf("no scenario exercised %q", want)
		}
	}
	path := filepath.Join("testdata", "placement.golden")
	if *updatePlacement {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("state placement differs from %s (-update rewrites it):\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, w, g)
		}
	}
	return "(equal)"
}

// mixedPlacementPlan is Workload 1 (its seq instances keyed on S, its T
// probes multicast) plus a keyed join U⋈V on a0, an unkeyed sum over X
// (X broadcast, replicated state) and a predicate-free join X⋈Y whose Y
// side is round-robin: one plan with every kind of stored side.
func mixedPlacementPlan(t *testing.T) (*core.Physical, []workload.Event) {
	t.Helper()
	cat, qs, events := mixedPlacementInputs(t)
	return buildTorturePlan(t, cat, qs, false), events
}

// mixedPlacementInputs are mixedPlacementPlan's catalog, queries and
// events.
func mixedPlacementInputs(t *testing.T) (map[string]core.SourceDecl, []*core.Query, []workload.Event) {
	t.Helper()
	p := workload.DefaultParams()
	p.Seed = 5
	p.NumQueries = 40
	p.ConstDomain = 40
	p.WindowDomain = 300
	cat := p.Catalog()
	extra := []string{"U", "V", "X", "Y"}
	for _, name := range extra {
		cat[name] = core.SourceDecl{Schema: p.Schema(name)}
	}
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	eq := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	qs = append(qs,
		core.NewQuery("uv", core.JoinL(eq, 80, core.Scan("U"), core.Scan("V"))),
		core.NewQuery("xsum", core.AggL(core.AggSum, 2, 120, nil, core.Scan("X"))),
		core.NewQuery("xy", core.JoinL(expr.True2{}, 20, core.Scan("X"), core.Scan("Y"))))
	var events []workload.Event
	for i, ev := range p.GenStreams(2400) {
		events = append(events, ev)
		vals := make([]int64, p.NumAttrs)
		for j := range vals {
			vals[j] = int64((i*(j+3) + j) % 11)
		}
		events = append(events, workload.Event{Source: extra[i%len(extra)], Tuple: &stream.Tuple{TS: ev.Tuple.TS, Vals: vals}})
	}
	return cat, qs, events
}

// placementEngine builds a sharded engine over plan; part nil analyzes.
func placementEngine(t *testing.T, plan *core.Physical, part *core.PartitionPlan, shards int) *Engine {
	t.Helper()
	sh, err := New(plan, part, Config{Shards: shards, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

func placementPush(t *testing.T, sh *Engine, events []workload.Event) {
	t.Helper()
	for _, ev := range events {
		if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
}

// writeDists renders the distribution of every stateful operator input
// under old and new routes and marks the transitions in seen under prefix.
func writeDists(out *strings.Builder, seen map[string]bool, prefix string, oldD, newD map[int][]core.SideDist) {
	ops := slices.Sorted(maps.Keys(newD))
	for _, op := range ops {
		for side := range newD[op] {
			od, nd := core.SideDistAt(oldD, op, side), core.SideDistAt(newD, op, side)
			fmt.Fprintf(out, "  op %d side %d: %s -> %s\n", op, side, distName(od), distName(nd))
			seen[prefix+" "+od.Dist.String()+"->"+nd.Dist.String()] = true
			seen[prefix+" "+nd.Dist.String()] = true
		}
	}
}

func distName(d core.SideDist) string {
	if d.Dist == core.DistKeyed {
		return fmt.Sprintf("keyed(a%d)", d.Attr)
	}
	return d.Dist.String()
}

// writeStored renders the stored item count of every (op, side) on every
// replica, read by a checkpoint's destructive peek.
func writeStored(t *testing.T, out *strings.Builder, label string, sh *Engine) {
	t.Helper()
	c := &wire.Checkpoint{}
	if err := sh.Checkpoint(c, nil, sh.PartitionPlan().OpSideDists(sh.plan)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "  %s:\n", label)
	for i := range sh.NumShards() {
		var cells []string
		for _, g := range c.Groups {
			if g.Shard == i {
				cells = append(cells, fmt.Sprintf("%d/%d=%d", g.OpID, g.Payload.Side(), g.Payload.Len()))
			}
		}
		slices.Sort(cells)
		fmt.Fprintf(out, "    shard %d: %s\n", i, strings.Join(cells, " "))
	}
}

func writeTotals(out *strings.Builder, sh *Engine) {
	fmt.Fprintf(out, "  total results %d\n", sh.TotalResults())
}

func pauseSet(ns int64) string {
	if ns > 0 {
		return "set"
	}
	return "zero"
}

func writeRebalanceStats(out *strings.Builder, st RebalanceStats) {
	fmt.Fprintf(out, "  stats: Moved=%d Dropped=%d Keys=%d Version=%d PauseNS=%s\n",
		st.Moved, st.Dropped, st.Keys, st.Version, pauseSet(st.PauseNS))
}

// placementOverlay rebalances a Zipf-skewed Workload 1 under the overlay
// the engine plans from its key histograms: keyed state re-splits, hot
// keys round-robin over several owners.
func placementOverlay(t *testing.T, out *strings.Builder, seen map[string]bool) {
	p := workload.DefaultParams()
	p.Seed = 3
	p.NumQueries = 120
	p.Zipf = 2.0
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	plan := buildTorturePlan(t, p.Catalog(), qs, false)
	events := p.GenStreamsSkewed(4000)
	sh := placementEngine(t, plan, nil, 4)
	half := len(events) / 2
	placementPush(t, sh, events[:half])
	out.WriteString("== rebalance with a key overlay: Workload 1, Zipf 2, 4 shards\n")
	oldD := sh.PartitionPlan().OpSideDists(plan)
	writeStored(t, out, "before", sh)
	st, err := sh.Rebalance(nil)
	if err != nil {
		t.Fatal(err)
	}
	writeDists(out, seen, "rebalance", oldD, sh.PartitionPlan().OpSideDists(plan))
	writeStored(t, out, "after", sh)
	writeRebalanceStats(out, st)
	if st.Keys > 0 {
		seen["overlay"] = true
	}
	placementPush(t, sh, events[half:])
	writeTotals(out, sh)
}

// liveAdd plans q into the running plan and splices it as a live add
// does: under the extended routes, or re-analyzed with a state migration
// when the pinned routes cannot serve it. It returns the migration's
// stats.
func liveAdd(t *testing.T, sh *Engine, q *core.Query) RebalanceStats {
	t.Helper()
	d, err := live.AddQuery(sh.plan, rules.Options{}, q)
	if err != nil {
		t.Fatal(err)
	}
	part, perr := core.ExtendPartition(sh.plan, sh.PartitionPlan())
	if perr != nil {
		part = core.AnalyzePartition(sh.plan)
		part.Table = &core.RoutingTable{Version: sh.PartitionPlan().RoutingVersion() + 1}
	}
	ch := &Churn{Delta: d, Rec: wire.ChurnRecord{Op: wire.ChurnAdd, Name: q.Name, Root: q.Root}, Plan: sh.plan}
	st, err := sh.ApplyDelta(ch, part, nil, nil, perr != nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func writeDeltaStats(out *strings.Builder, st RebalanceStats) {
	fmt.Fprintf(out, "  stats: Moved=%d Dropped=%d\n", st.Moved, st.Dropped)
}

// sourceEvents keeps the events of the named sources.
func sourceEvents(events []workload.Event, names ...string) []workload.Event {
	var kept []workload.Event
	for _, ev := range events {
		if slices.Contains(names, ev.Source) {
			kept = append(kept, ev)
		}
	}
	return kept
}

// placementLiveKeyedToReplicated: a grouped sum keyed on S.a1 runs
// hash-partitioned; a live unkeyed sum forces S to broadcast, so the
// grouped sum's window is copied onto every replica.
func placementLiveKeyedToReplicated(t *testing.T, out *strings.Builder, seen map[string]bool) {
	p := workload.DefaultParams()
	p.ConstDomain = 20
	grouped := core.NewQuery("by_a1", core.AggL(core.AggSum, 2, 600, []int{1}, core.Scan("S")))
	plan := buildTorturePlan(t, p.Catalog(), []*core.Query{grouped}, false)
	events := sourceEvents(p.GenStreams(3000), "S")
	sh := placementEngine(t, plan, nil, 3)
	half := len(events) / 2
	placementPush(t, sh, events[:half])
	out.WriteString("== live add: keyed state becomes replicated, 3 shards\n")
	oldD := sh.PartitionPlan().OpSideDists(plan)
	writeStored(t, out, "before", sh)
	st := liveAdd(t, sh, core.NewQuery("s_total", core.AggL(core.AggSum, 2, 600, nil, core.Scan("S"))))
	writeDists(out, seen, "live", oldD, sh.PartitionPlan().OpSideDists(plan))
	writeStored(t, out, "after", sh)
	writeDeltaStats(out, st)
	placementPush(t, sh, events[half:])
	writeTotals(out, sh)
}

// placementLiveReplicatedToKeyed: a sum over S grouped by (a1, a0) and a
// join T⋈S on a0 leave S broadcast (the join demotes it). A first live add
// merges into the sum's m-op, which renumbers it past the join; a second,
// a sum over T grouped by a1, breaks T's pinned route, and the fresh
// analysis then keys S on a0 and broadcasts T: replicated state becomes
// keyed and keyed state replicated in one migration.
func placementLiveReplicatedToKeyed(t *testing.T, out *strings.Builder, seen map[string]bool) {
	p := workload.DefaultParams()
	p.ConstDomain = 30
	eq := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	plan := buildTorturePlan(t, p.Catalog(), []*core.Query{
		core.NewQuery("qa", core.AggL(core.AggSum, 2, 600, []int{1, 0}, core.Scan("S"))),
		core.NewQuery("qj", core.JoinL(eq, 60, core.Scan("T"), core.Scan("S"))),
	}, false)
	events := p.GenStreams(3000)
	sh := placementEngine(t, plan, nil, 4)
	third := len(events) / 3
	placementPush(t, sh, events[:third])
	liveAdd(t, sh, core.NewQuery("qb1", core.AggL(core.AggSum, 2, 300, []int{1, 0}, core.Scan("S"))))
	placementPush(t, sh, events[third:2*third])
	out.WriteString("== live add: replicated state becomes keyed, 4 shards\n")
	oldD := sh.PartitionPlan().OpSideDists(plan)
	writeStored(t, out, "before", sh)
	st := liveAdd(t, sh, core.NewQuery("qb2", core.AggL(core.AggCount, 0, 300, []int{1}, core.Scan("T"))))
	writeDists(out, seen, "live", oldD, sh.PartitionPlan().OpSideDists(plan))
	writeStored(t, out, "after", sh)
	writeDeltaStats(out, st)
	placementPush(t, sh, events[2*third:])
	writeTotals(out, sh)
}

// broadcastPlan routes every source to every shard: always safe, and
// every stored side replicated.
func broadcastPlan(plan *core.Physical) *core.PartitionPlan {
	part := &core.PartitionPlan{Routes: make(map[string]core.SourceRoute), ReplicatedSinks: make(map[int]bool)}
	for name := range plan.Catalog {
		if plan.SourceStream(name) != nil {
			part.Routes[name] = core.SourceRoute{Mode: core.PartitionBroadcast}
		}
	}
	for _, q := range plan.Queries {
		part.ReplicatedSinks[q.ID] = true
	}
	return part
}

// placementReplicatedToAny starts the mixed plan fully broadcast and
// rebalances it onto its analyzed routes: replicated state becomes keyed
// (each replica keeps its ordinal share), unpartitioned (shard 0's copy
// stays) or stays replicated.
func placementReplicatedToAny(t *testing.T, out *strings.Builder, seen map[string]bool) {
	plan, events := mixedPlacementPlan(t)
	sh := placementEngine(t, plan, broadcastPlan(plan), 3)
	half := len(events) / 2
	placementPush(t, sh, events[:half])
	out.WriteString("== rebalance from broadcast onto the analyzed routes: mixed plan, 3 shards\n")
	oldD := sh.PartitionPlan().OpSideDists(plan)
	writeStored(t, out, "before", sh)
	st, err := sh.Rebalance(core.AnalyzePartition(plan))
	if err != nil {
		t.Fatal(err)
	}
	writeDists(out, seen, "rebalance", oldD, sh.PartitionPlan().OpSideDists(plan))
	writeStored(t, out, "after", sh)
	writeRebalanceStats(out, st)
	placementPush(t, sh, events[half:])
	writeTotals(out, sh)
}

// crashOnce kills its worker at the next batch, before the replica sees
// it, as an injected kill at a batch boundary does.
type crashOnce struct {
	replica
	fired atomic.Bool
}

func (c *crashOnce) replayBatch(seq int64, entries []cluster.Entry) error {
	if c.fired.CompareAndSwap(false, true) {
		panic(faultpoint.Crash{Name: "placement"})
	}
	return c.replica.replayBatch(seq, entries)
}

// placementRecover kills one shard of four with an unacknowledged batch
// in its WAL and recovers it away.
func placementRecover(t *testing.T, out *strings.Builder, seen map[string]bool, dead int) {
	plan, events := mixedPlacementPlan(t)
	sh := placementEngine(t, plan, nil, 4)
	half := len(events) / 2
	placementPush(t, sh, events[:half])
	fmt.Fprintf(out, "== recover shard %d of 4: mixed plan\n", dead)
	writeStored(t, out, "before", sh)
	sh.mu.Lock()
	sh.workers[dead].rep = &crashOnce{replica: sh.workers[dead].rep}
	sh.mu.Unlock()
	// Fewer rows than a batch: nothing reaches a worker before the drain.
	kill := half + 150
	for _, ev := range events[half:kill] {
		if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Drain(); !errors.Is(err, ErrShardDead) {
		t.Fatalf("drain after the kill: %v, want ErrShardDead", err)
	}
	st, err := sh.RecoverShard()
	if err != nil {
		t.Fatal(err)
	}
	d := sh.PartitionPlan().OpSideDists(plan)
	writeDists(out, seen, "recover", d, d)
	writeStored(t, out, "after", sh)
	fmt.Fprintf(out, "  stats: Shard=%d Replayed=%d Moved=%d Dropped=%d Bytes=%d Shards=%d Version=%d PauseNS=%s\n",
		st.Shard, st.Replayed, st.Moved, st.Dropped, st.Bytes, st.Shards, st.Version, pauseSet(st.PauseNS))
	placementPush(t, sh, events[kill:])
	writeTotals(out, sh)
}

// placementRestore checkpoints the mixed plan at width from (after a
// rebalance, so the checkpoint carries a key overlay) and restores it at
// width to, as RestoreSharded does: positionally at the same width, under
// a fresh routing table otherwise.
func placementRestore(t *testing.T, out *strings.Builder, seen map[string]bool, from, to int) {
	plan, events := mixedPlacementPlan(t)
	src := placementEngine(t, plan, nil, from)
	half := len(events) / 2
	placementPush(t, src, events[:half])
	if _, err := src.Rebalance(nil); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "== restore %d shards into %d: mixed plan\n", from, to)
	writeStored(t, out, "checkpointed", src)
	part := src.PartitionPlan()
	c := &wire.Checkpoint{Shards: from, Plan: plan.Snapshot(), Partition: part}
	var ids []int
	for _, q := range plan.Queries {
		ids = append(ids, q.ID)
	}
	if err := src.Checkpoint(c, ids, part.OpSideDists(plan)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	rc, err := wire.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rplan, err := core.RebuildPhysical(rc.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rpart := rc.Partition
	if to != from {
		rpart = rpart.WithMoves(nil)
	}
	dst := placementEngine(t, rplan, rpart, to)
	if err := dst.Restore(rc, rpart); err != nil {
		t.Fatal(err)
	}
	d := rpart.OpSideDists(rplan)
	writeDists(out, seen, "restore", d, d)
	writeStored(t, out, "restored", dst)
	placementPush(t, dst, events[half:])
	writeTotals(out, dst)
}
