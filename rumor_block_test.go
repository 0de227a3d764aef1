package rumor_test

import (
	"bytes"
	"fmt"
	"testing"

	rumor "repro"
	"repro/internal/workload"
)

// Block-vs-row equivalence at the system level: the identical feed must
// produce identical per-query result counts whether it is pushed row by
// row or as PushColumns calls of any size, and whether the plan runs
// single-threaded or sharded — including under live query churn
// (ApplyDelta barriers between in-flight blocks) and across a
// checkpoint/restore taken while column runs are still queued.

// colPusher is the ingest surface shared by System and ShardedSystem.
type colPusher interface {
	Push(streamName string, ts int64, vals ...int64) error
	PushColumns(streamName string, ts []int64, cols [][]int64) error
}

// windowRuns cuts events into windows and each window into one run per
// source, in order of first appearance, preserving per-source timestamp
// order. Every system under comparison gets these exact runs, so grouping
// is part of the input, not of the system under test.
func windowRuns(events []workload.Event, window int) [][]workload.Event {
	var runs [][]workload.Event
	for off := 0; off < len(events); off += window {
		at := map[string]int{}
		for _, ev := range events[off:min(off+window, len(events))] {
			i, ok := at[ev.Source]
			if !ok {
				i = len(runs)
				at[ev.Source] = i
				runs = append(runs, nil)
			}
			runs[i] = append(runs[i], ev)
		}
	}
	return runs
}

// pushWindows pushes each run of windowRuns as one PushColumns call, so a
// call holds at most window rows.
func pushWindows(t *testing.T, sys colPusher, events []workload.Event, window int) {
	t.Helper()
	for _, run := range windowRuns(events, window) {
		ts := make([]int64, len(run))
		cols := make([][]int64, len(run[0].Tuple.Vals))
		for a := range cols {
			cols[a] = make([]int64, len(run))
		}
		for row, ev := range run {
			ts[row] = ev.Tuple.TS
			for a, v := range ev.Tuple.Vals {
				cols[a][row] = v
			}
		}
		if err := sys.PushColumns(run[0].Source, ts, cols); err != nil {
			t.Fatal(err)
		}
	}
}

// pushRows pushes the runs of windowRuns row by row: the per-row
// reference for pushWindows at the same window.
func pushRows(t *testing.T, sys colPusher, events []workload.Event, window int) {
	t.Helper()
	for _, run := range windowRuns(events, window) {
		for _, ev := range run {
			if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBlockShardedEquivalenceMatrix: Workloads 1–3 × shards 1/2/4 ×
// channels on/off × PushColumns call sizes. Size 1 makes every row a
// one-row block; 1000 puts several ingest blocks of one call into one
// drain. The reference is a single-threaded System fed the identical runs
// through per-row Push.
func TestBlockShardedEquivalenceMatrix(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w3"} {
		for _, channels := range []bool{false, true} {
			catalog, qs, events := churnWorkload(t, wl, 30, 3600, 2)
			for _, size := range []int{1, 64, 256, 1000} {
				ref := rumor.New()
				declareAll(t, ref, catalog)
				for _, q := range qs {
					if err := ref.AddQuery(q.Name, q.Root); err != nil {
						t.Fatal(err)
					}
				}
				if err := ref.Optimize(rumor.Options{Channels: channels}); err != nil {
					t.Fatal(err)
				}
				pushRows(t, ref, events, size)
				if ref.TotalResults() == 0 {
					t.Fatalf("%s channels=%v: no results; matrix is vacuous", wl, channels)
				}
				for _, shards := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/channels=%v/shards=%d/block=%d", wl, channels, shards, size), func(t *testing.T) {
						sys := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 16})
						defer sys.Close()
						declareAll(t, sys, catalog)
						for _, q := range qs {
							if err := sys.AddQuery(q.Name, q.Root); err != nil {
								t.Fatal(err)
							}
						}
						if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
							t.Fatal(err)
						}
						pushWindows(t, sys, events, size)
						if err := sys.Drain(); err != nil {
							t.Fatal(err)
						}
						for _, q := range qs {
							if got, want := sys.ResultCount(q.Name), ref.ResultCount(q.Name); got != want {
								t.Fatalf("query %s: %d results, per-row reference %d", q.Name, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestBlockChurnEquivalence interleaves live query add/remove (ApplyDelta
// barriers) with columnar pushes on the block path, on both the System and
// a sharded deployment. Survivor counts must match a from-scratch per-row
// run that planned only the survivors.
func TestBlockChurnEquivalence(t *testing.T) {
	catalog, surv, events := churnWorkload(t, "w2", 30, 4200, 1)
	_, trans, _ := churnWorkload(t, "w2", 30, 0, 99)

	ref := rumor.New()
	declareAll(t, ref, catalog)
	for _, q := range surv {
		if err := ref.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	pushRows(t, ref, events, 100)
	if ref.TotalResults() == 0 {
		t.Fatal("no results; churn equivalence is vacuous")
	}

	run := func(t *testing.T, sys churnSys, cp colPusher, drain func()) {
		declareAll(t, sys, catalog)
		for _, q := range surv {
			if err := sys.AddQuery(q.Name, q.Root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		// One transient joins or leaves at every window boundary: blocks
		// queued before and after each ApplyDelta barrier.
		churnOps, next := 0, 0
		var active []string
		const window = 100
		for off := 0; off < len(events); off += window {
			end := min(off+window, len(events))
			pushWindows(t, cp, events[off:end], window)
			q := trans[(off/window)%len(trans)]
			name := fmt.Sprintf("bt_%d", off/window)
			if err := sys.AddQueryLive(name, q.Root); err != nil {
				t.Fatal(err)
			}
			active = append(active, name)
			churnOps++
			if len(active)-next > 2 {
				if err := sys.RemoveQuery(active[next]); err != nil {
					t.Fatal(err)
				}
				next++
				churnOps++
			}
		}
		for ; next < len(active); next++ {
			if err := sys.RemoveQuery(active[next]); err != nil {
				t.Fatal(err)
			}
			churnOps++
		}
		drain()
		if churnOps < 40 {
			t.Fatalf("only %d churn ops, want ≥ 40", churnOps)
		}
		for _, q := range surv {
			if got, want := sys.ResultCount(q.Name), ref.ResultCount(q.Name); got != want {
				t.Fatalf("query %s: churned block run %d results, per-row reference %d", q.Name, got, want)
			}
		}
	}

	t.Run("system", func(t *testing.T) {
		s := rumor.New()
		run(t, s, s, func() {})
	})
	t.Run("sharded", func(t *testing.T) {
		s := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 16})
		defer s.Close()
		run(t, s, s, func() {
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestCheckpointRestoreBlocksInFlight checkpoints mid-feed on the block
// path — on a sharded system without draining first, so column runs are
// still queued in worker batches — restores, and requires the continued
// runs to match the uninterrupted original exactly.
func TestCheckpointRestoreBlocksInFlight(t *testing.T) {
	catalog, qs, events := churnWorkload(t, "w2", 24, 4000, 5)
	half := len(events) / 2
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		declareAll(t, sys, catalog)
		for _, q := range qs {
			if err := sys.AddQuery(q.Name, q.Root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		// No settle before Checkpoint: pending batches may still hold
		// column runs when the checkpoint quiesces the workers.
		pushWindows(t, sys, events[:half], 100)
		var buf bytes.Buffer
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		res := k.restore(t, buf.Bytes())
		pushWindows(t, sys, events[half:], 100)
		pushWindows(t, res, events[half:], 100)
		k.settle(t, sys)
		k.settle(t, res)
		if sys.TotalResults() == 0 {
			t.Fatal("no results; restore equivalence is vacuous")
		}
		for _, q := range qs {
			if got, want := res.ResultCount(q.Name), sys.ResultCount(q.Name); got != want {
				t.Fatalf("query %s: restored %d results, original %d", q.Name, got, want)
			}
		}
	})
}
