package rumor_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rumor "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// testdata/result_counts.golden pins the per-query ResultCount and the
// TotalResults of every deployment and every counter epoch boundary the
// runtime has: a System with and without a result callback, a 2-shard
// ShardedSystem, a 2-worker pipe cluster, a live add/remove script with
// channels off and on, a checkpoint restored mid-feed, and an online
// rebalance (whose counter rebase resets every replica). A change to how
// results are counted must reproduce it byte for byte; regenerate only for
// an intended change of the results themselves:
//
//	go test . -run ResultCount -update
var updateCounts = flag.Bool("update", false, "rewrite the testdata/*.golden files of the test run")

// countSys is the surface the count runs need; satisfied by both
// *rumor.System and *rumor.ShardedSystem.
type countSys interface {
	churnSys
	colPusher
}

// feedMixed pushes the first half of events as 256-event column windows
// (the block path) and the second half row by row (the scalar path).
func feedMixed(t *testing.T, sys countSys, events []workload.Event) {
	t.Helper()
	half := len(events) / 2
	pushWindows(t, sys, events[:half], 256)
	for _, ev := range events[half:] {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
}

// setUp declares the catalog, registers qs and optimizes.
func setUp(t *testing.T, sys countSys, catalog map[string]core.SourceDecl, qs []*core.Query, channels bool) {
	t.Helper()
	declareAll(t, sys, catalog)
	for _, q := range qs {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
		t.Fatal(err)
	}
}

// writeCounts renders one run: a header, the total, and every named
// query's count in the given order.
func writeCounts(b *strings.Builder, run string, sys countSys, names []string) {
	fmt.Fprintf(b, "== %s total=%d\n", run, sys.TotalResults())
	for _, name := range names {
		fmt.Fprintf(b, "%s %d\n", name, sys.ResultCount(name))
	}
}

func queryNames(qs []*core.Query) []string {
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.Name
	}
	return names
}

func drainSharded(t *testing.T, sys *rumor.ShardedSystem) {
	t.Helper()
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
}

// churnScript runs the 64-operation live script over W1 ×250: adds come
// from a second Workload 1 draw, removals alternate between the live-added
// and the base queries, and a slice of the feed is pushed before every
// operation. It returns every name that was ever registered, in
// registration order.
func churnScript(t *testing.T, sys countSys, drain func(), channels bool) []string {
	t.Helper()
	catalog, base, events := churnWorkload(t, "w1", 250, 6400, 3)
	_, pool, _ := churnWorkload(t, "w1", 32, 0, 4)
	setUp(t, sys, catalog, base, channels)
	names := queryNames(base)
	baseLeft := append([]string(nil), names...)
	var added []string
	pick := func(from *[]string, i int) string {
		i %= len(*from)
		name := (*from)[i]
		*from = append((*from)[:i], (*from)[i+1:]...)
		return name
	}
	const ops = 64
	step := len(events) / ops
	for op := 0; op < ops; op++ {
		feedMixed(t, sys, events[op*step:(op+1)*step])
		switch {
		case op%2 == 0:
			name := fmt.Sprintf("live_%d", op/2)
			if err := sys.AddQueryLive(name, pool[op/2].Root); err != nil {
				t.Fatal(err)
			}
			added = append(added, name)
			names = append(names, name)
		case op%4 == 1:
			if err := sys.RemoveQuery(pick(&added, 7*op)); err != nil {
				t.Fatal(err)
			}
		default:
			if err := sys.RemoveQuery(pick(&baseLeft, 13*op)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
	return names
}

func TestResultCountGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs W2 ×1000 through every deployment")
	}
	catalog, w2, events := churnWorkload(t, "w2", 1000, 3000, 7)
	w2Names := queryNames(w2)
	var b strings.Builder

	t.Run("system", func(t *testing.T) {
		sys := rumor.New()
		setUp(t, sys, catalog, w2, false)
		feedMixed(t, sys, events)
		writeCounts(&b, "w2/system", sys, w2Names)
	})
	t.Run("system_callback", func(t *testing.T) {
		sys := rumor.New()
		seen := map[string]int64{}
		sys.OnResult(func(q string, _ int64, _ []int64) { seen[q]++ })
		setUp(t, sys, catalog, w2, false)
		feedMixed(t, sys, events)
		for _, name := range w2Names {
			if got, want := seen[name], sys.ResultCount(name); got != want {
				t.Fatalf("%s: %d callbacks, ResultCount %d", name, got, want)
			}
		}
		writeCounts(&b, "w2/system+callback", sys, w2Names)
	})
	t.Run("sharded2", func(t *testing.T) {
		sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 64})
		defer sys.Close()
		setUp(t, sys, catalog, w2, false)
		feedMixed(t, sys, events)
		drainSharded(t, sys)
		writeCounts(&b, "w2/sharded2", sys, w2Names)
	})
	t.Run("cluster2", func(t *testing.T) {
		sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: 64})
		defer sys.Close()
		declareAll(t, sys, catalog)
		for _, q := range w2 {
			if err := sys.AddQuery(q.Name, q.Root); err != nil {
				t.Fatal(err)
			}
		}
		nodes, _ := startPipeWorkers(t, 2)
		if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{
			Nodes: nodes, HeartbeatInterval: -1,
		}); err != nil {
			t.Fatal(err)
		}
		feedMixed(t, sys, events)
		drainSharded(t, sys)
		writeCounts(&b, "w2/cluster2", sys, w2Names)
	})
	for _, channels := range []bool{false, true} {
		t.Run(fmt.Sprintf("churn/channels=%v", channels), func(t *testing.T) {
			sys := rumor.New()
			names := churnScript(t, sys, func() {}, channels)
			writeCounts(&b, fmt.Sprintf("w1/churn channels=%v", channels), sys, names)
		})
	}
	half := len(events) / 2
	t.Run("checkpoint", func(t *testing.T) {
		sys := rumor.New()
		setUp(t, sys, catalog, w2, false)
		feedMixed(t, sys, events[:half])
		var buf bytes.Buffer
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		res, err := rumor.Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		feedMixed(t, res, events[half:])
		writeCounts(&b, "w2/checkpoint+restore", res, w2Names)
	})
	t.Run("rebalance", func(t *testing.T) {
		sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 64})
		defer sys.Close()
		setUp(t, sys, catalog, w2, false)
		feedMixed(t, sys, events[:half])
		drainSharded(t, sys)
		if _, err := sys.Rebalance(); err != nil {
			t.Fatal(err)
		}
		feedMixed(t, sys, events[half:])
		drainSharded(t, sys)
		writeCounts(&b, "w2/sharded2+rebalance", sys, w2Names)
	})
	if t.Failed() {
		return
	}

	path := filepath.Join("testdata", "result_counts.golden")
	if *updateCounts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("result counts differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("result counts differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
