package rumor_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	rumor "repro"
	"repro/internal/expr"
)

// perfScript is a CQL workload whose smoothing aggregate is keyed by pid:
// the partition analysis should hash CPU tuples on pid.
const perfScript = `
CREATE STREAM CPU(pid, load);
LET smoothed := AGG(avg(load) OVER 60 BY pid FROM CPU);
QUERY hot := FILTER(load > 90, @smoothed);
QUERY warm := FILTER(load > 50, @smoothed);
`

func buildShardedPerf(t testing.TB, shards int) *rumor.ShardedSystem {
	t.Helper()
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 8})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestShardedSystemLifecycle(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		ref := rumor.New()
		if err := ref.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
		if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		sys := buildShardedPerf(t, shards)
		if got := sys.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		if info := sys.PartitionInfo(); !strings.Contains(info, "CPU: hash(a0)") {
			t.Fatalf("partition info = %q, want CPU hashed on pid", info)
		}
		for ts := int64(0); ts < 200; ts++ {
			pid := ts % 16
			load := (ts * 7) % 101
			if err := ref.Push("CPU", ts, pid, load); err != nil {
				t.Fatal(err)
			}
			if err := sys.Push("CPU", ts, pid, load); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"hot", "warm"} {
			if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want {
				t.Fatalf("shards=%d query %s: %d results, want %d", shards, q, got, want)
			}
		}
		if got, want := sys.TotalResults(), ref.TotalResults(); got != want || got == 0 {
			t.Fatalf("shards=%d total = %d, want %d (nonzero)", shards, got, want)
		}
		var tuples int64
		for _, st := range sys.ShardStats() {
			tuples += st.Tuples
		}
		if tuples != 200 {
			t.Fatalf("shard stats count %d tuples, want 200", tuples)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Push("CPU", 999, 1, 1); err == nil {
			t.Fatal("Push after Close should fail")
		}
	}
}

// The sequenced OnResult callback must see every merged result exactly
// once, with correct query attribution, and must be callback-race free.
func TestShardedSystemOnResult(t *testing.T) {
	ref := rumor.New()
	if err := ref.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := ref.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 4, BatchSize: 4})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[string]int{}
	sys.OnResult(func(q string, ts int64, vals []int64) {
		mu.Lock()
		got[q]++
		mu.Unlock()
	})
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 300; ts++ {
		pid := ts % 8
		load := (ts * 13) % 101
		if err := ref.Push("CPU", ts, pid, load); err != nil {
			t.Fatal(err)
		}
		if err := sys.Push("CPU", ts, pid, load); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"hot", "warm"} {
		if int64(got[q]) != ref.ResultCount(q) {
			t.Fatalf("query %s: %d callbacks, want %d", q, got[q], ref.ResultCount(q))
		}
	}
}

// Programmatic builders work through the sharded API, and an unkeyed
// event-pattern plan (Workload-1 shape) broadcasts the probe side while
// the result counts still match the single-threaded system.
func TestShardedSystemBuildersUnkeyed(t *testing.T) {
	mk := func(shards int) (*rumor.ShardedSystem, *rumor.System) {
		sh := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 16})
		ref := rumor.New()
		for _, s := range []struct {
			decl func(name, label string, attrs ...string) error
			add  func(name string, root *rumor.Logical) error
		}{
			{sh.DeclareStream, sh.AddQuery},
			{ref.DeclareStream, ref.AddQuery},
		} {
			if err := s.decl("S", "", "a", "b"); err != nil {
				t.Fatal(err)
			}
			if err := s.decl("T", "", "a", "b"); err != nil {
				t.Fatal(err)
			}
			pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 3}})
			root := rumor.Seq(pred, 50,
				rumor.Filter(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, rumor.Scan("S")),
				rumor.Scan("T"))
			if err := s.add("pattern", root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := ref.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
		return sh, ref
	}
	for _, shards := range []int{2, 4} {
		sh, ref := mk(shards)
		if info := sh.PartitionInfo(); !strings.Contains(info, "T: multicast") {
			t.Fatalf("partition info = %q, want T multicast", info)
		}
		for ts := int64(0); ts < 400; ts++ {
			src := "S"
			vals := []int64{ts % 5, 0}
			if ts%2 == 1 {
				src = "T"
				vals = []int64{3, 0}
			}
			if err := ref.Push(src, ts, vals...); err != nil {
				t.Fatal(err)
			}
			if err := sh.Push(src, ts, vals...); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Drain(); err != nil {
			t.Fatal(err)
		}
		if got, want := sh.ResultCount("pattern"), ref.ResultCount("pattern"); got != want || want == 0 {
			t.Fatalf("shards=%d pattern = %d, want %d (nonzero)", shards, got, want)
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPushColumnsRejects holds PushColumns to the checks PushBatch makes,
// on both systems and whatever the batch size: an unknown source and a
// closed engine are errors even for an empty batch, and an empty batch to
// a known source of a running system is accepted.
func TestPushColumnsRejects(t *testing.T) {
	type pusher interface {
		Push(streamName string, ts int64, vals ...int64) error
		PushBatch(streamName string, ts []int64, vals [][]int64) error
		PushColumns(streamName string, ts []int64, cols [][]int64) error
		TotalResults() int64
	}
	system := func(t *testing.T) pusher {
		sys := rumor.New()
		if err := sys.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sharded := func(t *testing.T) pusher {
		sys := buildShardedPerf(t, 2)
		t.Cleanup(func() { sys.Close() })
		return sys
	}
	closed := func(t *testing.T) pusher {
		sys := buildShardedPerf(t, 2)
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, tc := range []struct {
		name   string
		mk     func(t *testing.T) pusher
		source string
		ok     bool
	}{
		{"system/unknown", system, "nope", false},
		{"system/known", system, "CPU", true},
		{"sharded/unknown", sharded, "nope", false},
		{"sharded/known", sharded, "CPU", true},
		{"sharded/closed", closed, "CPU", false},
	} {
		for _, rows := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/rows=%d", tc.name, rows), func(t *testing.T) {
				sys := tc.mk(t)
				ts := make([]int64, rows)
				cols := [][]int64{make([]int64, rows), make([]int64, rows)}
				vals := make([][]int64, rows)
				for i := range vals {
					ts[i] = int64(i)
					vals[i] = []int64{int64(i), 95}
				}
				colErr := sys.PushColumns(tc.source, ts, cols)
				if (colErr == nil) != tc.ok {
					t.Fatalf("PushColumns: err = %v, want ok = %v", colErr, tc.ok)
				}
				if batchErr := sys.PushBatch(tc.source, ts, vals); (batchErr == nil) != tc.ok {
					t.Fatalf("PushBatch: err = %v, want ok = %v", batchErr, tc.ok)
				}
			})
		}
	}

	// A row shorter or longer than CPU(pid, load) is rejected by every
	// ingest entry with ErrArity before any row of the call is ingested:
	// the call returns instead of panicking, a valid push afterwards
	// succeeds, no shard dies, and the results are those of the valid push
	// alone.
	valid := func(sys pusher) error { return sys.Push("CPU", 1, 7, 95) }
	ref := system(t)
	if err := valid(ref); err != nil {
		t.Fatal(err)
	}
	want := ref.TotalResults()
	if want == 0 {
		t.Fatal("the valid push produced no results; the ingest check is vacuous")
	}
	for _, sc := range []struct {
		name string
		mk   func(t *testing.T) pusher
	}{{"system", system}, {"sharded", sharded}} {
		for _, width := range []int{1, 3} {
			row := func() []int64 { return slices.Repeat([]int64{95}, width) }
			ts := []int64{0, 0, 0, 0}
			for _, entry := range []struct {
				name string
				push func(sys pusher) error
			}{
				{"push", func(sys pusher) error { return sys.Push("CPU", 0, row()...) }},
				{"batch", func(sys pusher) error {
					return sys.PushBatch("CPU", ts, [][]int64{row(), row(), row(), row()})
				}},
				{"ragged", func(sys pusher) error {
					return sys.PushBatch("CPU", ts, [][]int64{{1, 95}, {2, 95}, {3, 95}, row()})
				}},
				{"columns", func(sys pusher) error {
					cols := make([][]int64, width)
					for a := range cols {
						cols[a] = []int64{95, 95, 95, 95}
					}
					return sys.PushColumns("CPU", ts, cols)
				}},
			} {
				t.Run(fmt.Sprintf("%s/arity/%s/width=%d", sc.name, entry.name, width), func(t *testing.T) {
					sys := sc.mk(t)
					if err := entry.push(sys); !errors.Is(err, rumor.ErrArity) {
						t.Fatalf("err = %v, want ErrArity", err)
					}
					if err := valid(sys); err != nil {
						t.Fatalf("valid push after the rejected one: %v", err)
					}
					if d, ok := sys.(interface{ Drain() error }); ok {
						if err := d.Drain(); err != nil {
							t.Fatalf("Drain after the rejected push: %v", err)
						}
					}
					if got := sys.TotalResults(); got != want {
						t.Fatalf("%d results, want the valid push's %d", got, want)
					}
				})
			}
		}
	}
}

// BenchmarkShardedPushBatch pushes perfScript's CPU stream into 2 shards
// through PushBatch calls of 1 and 256 rows, draining at the end; one op
// is one row, so ns/op and allocs/op are per row.
func BenchmarkShardedPushBatch(b *testing.B) {
	for _, rows := range []int{1, 256} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			sys := buildShardedPerf(b, 2)
			defer sys.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += rows {
				n := min(rows, b.N-i)
				ts := make([]int64, n)
				vals := make([][]int64, n)
				for j := range n {
					ts[j] = int64(i + j)
					vals[j] = []int64{int64((i + j) % 64), int64((i + j) % 100)}
				}
				if err := sys.PushBatch("CPU", ts, vals); err != nil {
					b.Fatal(err)
				}
			}
			if err := sys.Drain(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
