package shard

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mop"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/workload"
)

// pushBoth mirrors one event into the reference engine and the sharded
// engine.
func pushBoth(t *testing.T, ref *engine.Engine, sh *Engine, ev workload.Event) {
	t.Helper()
	if err := ref.Push(ev.Source, ev.Tuple); err != nil {
		t.Fatal(err)
	}
	if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
		t.Fatal(err)
	}
}

// compareCounts requires identical per-query and total result counts.
func compareCounts(t *testing.T, ref *engine.Engine, sh *Engine, qs []*core.Query, label string) {
	t.Helper()
	if ref.TotalResults() == 0 {
		t.Fatalf("%s: no results; equivalence is vacuous", label)
	}
	for _, q := range qs {
		if got, want := sh.ResultCount(q.ID), ref.ResultCount(q.ID); got != want {
			t.Fatalf("%s: query %s: %d results, want %d\npartition plan:\n%s",
				label, q.Name, got, want, sh.PartitionPlan())
		}
	}
	if got, want := sh.TotalResults(), ref.TotalResults(); got != want {
		t.Fatalf("%s: total results %d, want %d", label, got, want)
	}
}

// checkRebalanceEquivalence pushes half the events, rebalances mid-stream
// (auto-planned overlay from the stored-state histograms), pushes the
// rest, and requires results identical to an uninterrupted single-engine
// run.
func checkRebalanceEquivalence(t *testing.T, catalog map[string]core.SourceDecl,
	qs []*core.Query, events []workload.Event, channels bool, shards int) {
	t.Helper()
	ref, sh := buildPair(t, catalog, qs, channels, shards)
	defer sh.Close()
	half := len(events) / 2
	for _, ev := range events[:half] {
		pushBoth(t, ref, sh, ev)
	}
	st, err := sh.Rebalance(nil)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if st.Version == 0 {
		t.Fatal("rebalance did not bump the routing-table version")
	}
	for _, ev := range events[half:] {
		pushBoth(t, ref, sh, ev)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	compareCounts(t, ref, sh, qs, "mid-stream rebalance")
}

// Workloads 1–3 × shard counts: a mid-stream rebalance must not change any
// query's results.
func TestRebalanceEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run("w1", func(t *testing.T) {
			p := workload.DefaultParams()
			p.NumQueries = 300
			qs, err := workload.ToRUMOR(p.Workload1())
			if err != nil {
				t.Fatal(err)
			}
			events := p.GenStreams(6000)
			for _, channels := range []bool{false, true} {
				checkRebalanceEquivalence(t, p.Catalog(), qs, events, channels, shards)
			}
		})
		t.Run("w2", func(t *testing.T) {
			p := workload.DefaultParams()
			p.NumQueries = 150
			qs, err := workload.ToRUMOR(p.Workload2Seq())
			if err != nil {
				t.Fatal(err)
			}
			events := p.GenStreams(4000)
			checkRebalanceEquivalence(t, p.Catalog(), qs, events, false, shards)

			pm := workload.DefaultParams()
			pm.NumQueries = 60
			mus, err := workload.ToRUMOR(pm.Workload2Mu())
			if err != nil {
				t.Fatal(err)
			}
			checkRebalanceEquivalence(t, pm.Catalog(), mus, pm.GenStreams(3000), false, shards)
		})
		t.Run("w3", func(t *testing.T) {
			const k = 8
			p := workload.DefaultParams()
			p.NumQueries = 200
			qs := p.Workload3(k)
			events := p.Workload3Rounds(k, 400)
			for _, channels := range []bool{false, true} {
				checkRebalanceEquivalence(t, p.Workload3Catalog(k), qs, events, channels, shards)
			}
		})
	}
}

// A Zipf-skewed Workload 1 concentrates instance state on few shards; the
// rebalance must measurably flatten the tuple balance of the traffic that
// follows while keeping results exact.
func TestRebalanceFlattensSkew(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 400
	p.Zipf = 2.0 // strong skew: few hot partner constants
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	events := p.GenStreamsSkewed(12000)
	const shards = 4
	ref, sh := buildPair(t, p.Catalog(), qs, false, shards)
	defer sh.Close()
	half := len(events) / 2
	for _, ev := range events[:half] {
		pushBoth(t, ref, sh, ev)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	before := sh.ShardStats()
	st, err := sh.Rebalance(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys == 0 {
		t.Fatal("skewed workload produced no key moves")
	}
	for _, ev := range events[half:] {
		pushBoth(t, ref, sh, ev)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	after := sh.ShardStats()
	compareCounts(t, ref, sh, qs, "skewed rebalance")

	imbalance := func(tuples []int64) float64 {
		var total, maxT int64
		for _, n := range tuples {
			total += n
			if n > maxT {
				maxT = n
			}
		}
		if total == 0 {
			return 1
		}
		return float64(maxT) * float64(shards) / float64(total)
	}
	phase1 := make([]int64, shards)
	phase2 := make([]int64, shards)
	for i := range before {
		phase1[i] = before[i].Tuples
		phase2[i] = after[i].Tuples - before[i].Tuples
	}
	b1, b2 := imbalance(phase1), imbalance(phase2)
	if b2 >= b1 {
		t.Fatalf("rebalance did not flatten tuple imbalance: before %.3f, after %.3f\nphase1 %v\nphase2 %v",
			b1, b2, phase1, phase2)
	}
}

// The adaptive trigger: MaybeRebalance fires above the drift threshold,
// which it reads the same on every run, and the run stays exact.
func TestMaybeRebalanceAdaptive(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 300
	p.Zipf = 2.0
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	events := p.GenStreams(10000)
	ref, sh := buildPair(t, p.Catalog(), qs, false, 4)
	defer sh.Close()
	half := len(events) / 2
	for _, ev := range events[:half] {
		pushBoth(t, ref, sh, ev)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	// The trigger reads tuples replayed plus results produced per
	// replica, a function of input, plan and routing: 655+41, 647+11,
	// 654+97 and 646+291 on every run, so 937 over a mean of 760.5. The
	// tuples alone are nearly flat (1.007); the results carry the skew.
	if got, want := sh.Imbalance(), 937/(3042.0/4); got != want {
		t.Fatalf("imbalance %v, want %v (per shard %+v)", got, want, sh.ShardStats())
	}
	ran, _, err := sh.MaybeRebalance(1.05)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatalf("skewed workload below threshold: imbalance %.3f", sh.Imbalance())
	}
	// Balanced now: a second call with a loose threshold must be a no-op.
	if ran2, _, err := sh.MaybeRebalance(1e9); err != nil || ran2 {
		t.Fatalf("MaybeRebalance re-fired (ran=%v err=%v)", ran2, err)
	}
	for _, ev := range events[half:] {
		pushBoth(t, ref, sh, ev)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	compareCounts(t, ref, sh, qs, "adaptive rebalance")
}

// Input that matches nothing is still load: with every S tuple on one key
// and no T event, one shard replays them all and no shard produces a
// result, and the trigger reads the skew and fires.
func TestImbalanceCountsUnmatchedInput(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 300
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	ref, sh := buildPair(t, p.Catalog(), qs, false, 4)
	defer sh.Close()
	if r := sh.PartitionPlan().Routes["S"]; r.Mode != core.PartitionHash || r.Attr != 0 {
		t.Fatalf("S routed %+v, want hash(a0)", r)
	}
	for i := range 1000 {
		vals := make([]int64, p.NumAttrs) // the engines keep the slice
		vals[1] = int64(i % p.ConstDomain)
		pushBoth(t, ref, sh, workload.Event{Source: "S", Tuple: stream.NewTuple(int64(i), vals...)})
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := sh.TotalResults(); n != 0 {
		t.Fatalf("%d results; the input must match nothing", n)
	}
	if got := sh.Imbalance(); got != 4 {
		t.Fatalf("imbalance %v, want 4: one of 4 shards replayed every tuple (per shard %+v)", got, sh.ShardStats())
	}
	ran, _, err := sh.MaybeRebalance(1.05)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("MaybeRebalance did not fire on input skewed onto one shard")
	}
}

// refusingReplica is a replica whose registry refuses every import, so a
// destructive peek exports a side and cannot put it back.
type refusingReplica struct{ replica }

func (r refusingReplica) registry() Registry { return refusingRegistry{r.replica.registry()} }

type refusingRegistry struct{ Registry }

var errImportRefused = errors.New("import refused")

func (refusingRegistry) Import(int, *mop.StatePayload, bool) error { return errImportRefused }

// TestCheckpointReimportFailureDisables: a checkpoint whose peek cannot
// re-import what it exported leaves that side's items out of the store.
// Checkpoint returns the cause, and the engine is disabled: later pushes
// fail instead of running on the missing state.
func TestCheckpointReimportFailureDisables(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 40
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	plan := buildTorturePlan(t, p.Catalog(), qs, false)
	sh := placementEngine(t, plan, nil, 2)
	events := p.GenStreams(2000)
	placementPush(t, sh, events)
	sh.mu.Lock()
	for _, w := range sh.workers {
		w.rep = refusingReplica{w.rep}
	}
	sh.mu.Unlock()
	err = sh.Checkpoint(&wire.Checkpoint{}, nil, sh.PartitionPlan().OpSideDists(plan))
	if !errors.Is(err, errImportRefused) {
		t.Fatalf("Checkpoint: %v, want the refused re-import", err)
	}
	ev := events[0]
	if err := sh.Push(ev.Source, ev.Tuple.TS+int64(len(events)), ev.Tuple.Vals); err == nil {
		t.Fatal("Push after a failed re-import succeeded")
	}
}
