package rumor_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	rumor "repro"
	"repro/internal/stream"
	"repro/internal/workload"
)

// testdata/agg_results.golden pins, per query, the number of results and
// an order-free hash of their (ts, vals) on the aggregate-heavy scripts:
// the relational script with channels off and on, a five-function
// mixed-window script (unbounded, duplicate and gated windows, with and
// without BY), the mixed script on a 2-shard ShardedSystem, and the mixed
// script checkpointed and restored mid-feed. Two more runs push every
// event through PushColumns in 256-row same-source runs, so the block
// kernels and the block→scalar adapter emit every result: Workload 1, and
// the relational script with channels on.
//
// Single-engine runs also record an ordered hash of each query's result
// sequence: the order in which one query receives its results is part of
// the contract. The order across queries is not: within one drain, when
// one query's result is delivered relative to another query's may change
// with how the engine schedules delivery. Sharded runs record no order,
// since their cross-shard interleaving depends on timing.
//
// A change to how aggregates are shared or results are delivered must
// reproduce the file byte for byte. Regenerate only for an intended change
// of the results themselves:
//
//	go test . -run AggResults -update

// aggRelScript is the rel_cql shape at test scale: n filter+project, n
// aggregate and n join queries over S and T, windows drawn from 1..60.
func aggRelScript(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("CREATE STREAM S(a0, a1, a2);\nCREATE STREAM T(a0, a1, a2);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY flt_%d := PROJECT(a0, a1 FROM FILTER(a0 = %d AND a1 > %d, S));\n",
			i, rng.Intn(8), rng.Intn(100))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY agg_%d := AGG(avg(a1) OVER %d BY a0 FROM S);\n", i, 1+rng.Intn(60))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY join_%d := JOIN(S, T ON LEFT.a0 = EVENT.a0 WINDOW %d);\n", i, 1+rng.Intn(60))
	}
	return b.String()
}

// aggMixedScript registers every aggregate function over a window set
// with an unbounded (no OVER) and a duplicate window, with and without BY,
// over S directly and over selections of S (which channelize encodes),
// plus one aggregate over T.
func aggMixedScript() string {
	var b strings.Builder
	b.WriteString("CREATE STREAM S(a0, a1, a2);\nCREATE STREAM T(a0, a1, a2);\n")
	windows := []string{"", " OVER 3", " OVER 10", " OVER 25", " OVER 10"}
	for _, fn := range []string{"sum", "count", "avg", "min", "max"} {
		for wi, over := range windows {
			fmt.Fprintf(&b, "QUERY %s_w%d := AGG(%s(a1)%s BY a0 FROM S);\n", fn, wi, fn, over)
			fmt.Fprintf(&b, "QUERY %s_w%d_all := AGG(%s(a1)%s FROM S);\n", fn, wi, fn, over)
			fmt.Fprintf(&b, "QUERY %s_w%d_gated := AGG(%s(a1)%s BY a0 FROM FILTER(a2 != %d, S));\n",
				fn, wi, fn, over, wi)
		}
	}
	b.WriteString("QUERY t_count := AGG(count(a0) OVER 7 BY a2 FROM T);\n")
	return b.String()
}

// aggFeed draws n events over S and T with strictly increasing
// timestamps and small value domains, so groups and windows stay busy.
func aggFeed(n int, seed int64) []workload.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]workload.Event, n)
	for i := range events {
		src := "S"
		if rng.Intn(3) == 0 {
			src = "T"
		}
		events[i] = workload.Event{Source: src, Tuple: stream.NewTuple(int64(i),
			int64(rng.Intn(8)), int64(rng.Intn(100)), int64(rng.Intn(6)))}
	}
	return events
}

// resultDigest accumulates, per query, a result count, the sum of an
// FNV-1a hash of each result's (ts, vals), equal for any delivery order,
// and a hash chained over the results in delivery order.
type resultDigest struct {
	mu    sync.Mutex
	count map[string]int64
	sum   map[string]uint64
	seq   map[string]uint64
}

func newResultDigest() *resultDigest {
	return &resultDigest{count: map[string]int64{}, sum: map[string]uint64{}, seq: map[string]uint64{}}
}

func (d *resultDigest) add(q string, ts int64, vals []int64) {
	h := fnv.New64a()
	fmt.Fprint(h, ts, vals)
	r := h.Sum64()
	d.mu.Lock()
	d.count[q]++
	d.sum[q] += r
	d.seq[q] = (d.seq[q]^r)*0x100000001b3 + 1
	d.mu.Unlock()
}

// write renders one run; ordered adds each query's delivery-order hash.
func (d *resultDigest) write(b *strings.Builder, run string, ordered bool) {
	names := make([]string, 0, len(d.count))
	for name := range d.count {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(b, "== %s queries=%d\n", run, len(names))
	for _, name := range names {
		fmt.Fprintf(b, "%s %d %016x", name, d.count[name], d.sum[name])
		if ordered {
			fmt.Fprintf(b, " %016x", d.seq[name])
		}
		b.WriteByte('\n')
	}
}

// aggSys is the surface the digest runs need; satisfied by both
// *rumor.System and *rumor.ShardedSystem.
type aggSys interface {
	countSys
	ExecScript(src string) error
	OnResult(fn func(query string, ts int64, vals []int64))
}

func runAggScript(t *testing.T, sys aggSys, script string, channels bool, events []workload.Event) *resultDigest {
	t.Helper()
	d := newResultDigest()
	sys.OnResult(d.add)
	if err := sys.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
		t.Fatal(err)
	}
	feedMixed(t, sys, events)
	return d
}

// sourceRuns relabels events into alternating runs of n S and n T events,
// keeping their timestamps and values, so that a window of n events is one
// same-source PushColumns call.
func sourceRuns(events []workload.Event, n int) []workload.Event {
	out := make([]workload.Event, len(events))
	for i, ev := range events {
		src := "S"
		if i/n%2 == 1 {
			src = "T"
		}
		out[i] = workload.Event{Source: src, Tuple: ev.Tuple}
	}
	return out
}

func TestAggResultsGolden(t *testing.T) {
	events := aggFeed(4000, 5)
	rel, mixed := aggRelScript(40, 9), aggMixedScript()
	var b strings.Builder
	for _, channels := range []bool{false, true} {
		t.Run(fmt.Sprintf("rel/channels=%v", channels), func(t *testing.T) {
			runAggScript(t, rumor.New(), rel, channels, events).
				write(&b, fmt.Sprintf("rel channels=%v", channels), true)
		})
	}
	t.Run("mixed", func(t *testing.T) {
		runAggScript(t, rumor.New(), mixed, true, events).write(&b, "mixed channels=true", true)
	})
	t.Run("mixed/sharded2", func(t *testing.T) {
		sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 64})
		defer sys.Close()
		d := runAggScript(t, sys, mixed, true, events)
		drainSharded(t, sys)
		d.write(&b, "mixed sharded2", false)
	})
	t.Run("w1/runs256", func(t *testing.T) {
		catalog, w1, w1Events := churnWorkload(t, "w1", 250, 8192, 11)
		sys := rumor.New()
		d := newResultDigest()
		sys.OnResult(d.add)
		setUp(t, sys, catalog, w1, false)
		pushWindows(t, sys, sourceRuns(w1Events, 256), 256)
		d.write(&b, "w1 runs256", true)
	})
	t.Run("rel/runs256", func(t *testing.T) {
		sys := rumor.New()
		d := newResultDigest()
		sys.OnResult(d.add)
		if err := sys.ExecScript(rel); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		pushWindows(t, sys, sourceRuns(events, 256), 256)
		d.write(&b, "rel runs256 channels=true", true)
	})
	t.Run("mixed/checkpoint", func(t *testing.T) {
		half := len(events) / 2
		sys := rumor.New()
		d := runAggScript(t, sys, mixed, true, events[:half])
		var buf bytes.Buffer
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		res, err := rumor.Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res.OnResult(d.add)
		feedMixed(t, res, events[half:])
		d.write(&b, "mixed checkpoint+restore", true)
	})
	if t.Failed() {
		return
	}

	path := filepath.Join("testdata", "agg_results.golden")
	if *updateCounts {
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
				t.Fatalf("aggregate results differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("aggregate results differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
