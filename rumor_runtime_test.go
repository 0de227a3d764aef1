package rumor_test

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	rumor "repro"
	"repro/internal/expr"
)

// The runtime table: every root System test runs against New(), a system
// of one in-process shard built by NewSharded, and a two-shard system
// ("sharded") that is drained before its counts are read. Results, typed
// errors and checkpoint round trips must agree across the rows.

// runtimeKind is one row of the runtime table.
type runtimeKind struct {
	name   string
	shards int // 0: rumor.New()
}

var runtimeKinds = []runtimeKind{{"system", 0}, {"shards=1", 1}, {"sharded", 2}}

// eachRuntime runs fn once per row of the runtime table, as subtests.
func eachRuntime(t *testing.T, fn func(t *testing.T, k runtimeKind)) {
	for _, k := range runtimeKinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// new returns an empty system of the row's kind, closed when the test ends.
func (k runtimeKind) new(t testing.TB) *rumor.System {
	s := rumor.New()
	if k.shards > 0 {
		s = rumor.NewSharded(rumor.ShardConfig{Shards: k.shards, BatchSize: 16})
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// restore rebuilds a system of the row's kind from a checkpoint.
func (k runtimeKind) restore(t testing.TB, raw []byte) *rumor.System {
	t.Helper()
	s, err := rumor.Restore(bytes.NewReader(raw))
	if k.shards > 0 {
		s, err = rumor.RestoreSharded(bytes.NewReader(raw), rumor.ShardConfig{BatchSize: 16})
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// settle returns once every result of the pushes so far is counted and
// delivered.
func (k runtimeKind) settle(t testing.TB, s *rumor.System) {
	t.Helper()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// metrics snapshots the telemetry of s.
func (k runtimeKind) metrics(t testing.TB, s *rumor.System) *rumor.Metrics {
	t.Helper()
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// needsOneShard skips a test of PushShared on a row of several shards,
// which refuses shared tuples (TestPushSharedNeedsOneShard).
func (k runtimeKind) needsOneShard(t testing.TB) {
	if k.shards > 1 {
		t.Skipf("%s refuses PushShared", k.name)
	}
}

// filterSystem returns an optimized system with one stateless query over
// S(a, b): "big" keeps the rows with a > 2.
func filterSystem(t testing.TB, s *rumor.System) *rumor.System {
	t.Helper()
	if err := s.DeclareStream("S", "", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddQuery("big", rumor.Filter(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 2}, rumor.Scan("S"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// A system of one in-process shard runs inline: building, optimizing and
// feeding it starts no goroutine.
func TestInlineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := filterSystem(t, rumor.New())
	for i := int64(0); i < 100; i++ {
		if err := sys.Push("S", i, i%7, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Optimize and 100 pushes, %d before", got, before)
	}
	if got := sys.ResultCount("big"); got != 56 {
		t.Fatalf("big = %d before any Drain, want 56", got)
	}
}

// Concurrent pushers on one inline shard are serialized by the router:
// every row is counted once and the callback sees each result (run under
// -race).
func TestInlineConcurrentPushers(t *testing.T) {
	sys := filterSystem(t, rumor.New())
	var calls atomic.Int64
	sys.OnResult(func(string, int64, []int64) { calls.Add(1) })
	const pushers, rows = 4, 300
	var wg sync.WaitGroup
	for p := range pushers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range int64(rows) {
				var err error
				switch p % 2 {
				case 0:
					err = sys.Push("S", i, i%7, 0)
				default:
					err = sys.PushColumns("S", []int64{i}, [][]int64{{i % 7}, {0}})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var want int64
	for i := range int64(rows) {
		if i%7 > 2 {
			want += pushers
		}
	}
	if got := sys.ResultCount("big"); got != want || calls.Load() != want {
		t.Fatalf("big = %d, callbacks = %d, want %d", got, calls.Load(), want)
	}
}

// A PushColumns call on one inline shard allocates nothing on a selection
// plan, and the caller owns ts and cols again when it returns: refilling
// the same buffers for every call gives the counts of per-row pushes.
func TestInlinePushColumnsOwnership(t *testing.T) {
	sys := buildPerf(t, rumor.New())
	ref := buildPerf(t, rumor.New())
	ts := make([]int64, 64)
	cols := [][]int64{make([]int64, 64), make([]int64, 64)}
	for lap := int64(0); lap < 8; lap++ {
		for i := range ts {
			at := lap*64 + int64(i)
			ts[i], cols[0][i], cols[1][i] = at, at%16, (at*7)%101
			if err := ref.Push("CPU", at, at%16, (at*7)%101); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.PushColumns("CPU", ts, cols); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"hot", "warm"} {
		if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want || want == 0 {
			t.Fatalf("query %s: %d results from reused buffers, %d per row (nonzero)", q, got, want)
		}
	}

	sel := filterSystem(t, rumor.New())
	n := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		for i := range ts {
			ts[i], cols[0][i], cols[1][i] = n, n%7, 0
			n++
		}
		if err := sel.PushColumns("S", ts, cols); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PushColumns on one inline shard: %.1f allocs per call, want 0", allocs)
	}
}

// buildPerf optimizes perfScript on s.
func buildPerf(t testing.TB, s *rumor.System) *rumor.System {
	t.Helper()
	if err := s.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := s.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// PushShared needs one in-process shard: with two it fails and ingests
// nothing.
func TestPushSharedNeedsOneShard(t *testing.T) {
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2})
	defer sys.Close()
	for _, n := range []string{"S1", "S2"} {
		if err := sys.DeclareStream(n, "grp", "a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddQuery("q"+n, rumor.Scan(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if err := sys.PushShared([]string{"S1", "S2"}, 0, 9, 9); err == nil {
		t.Fatal("PushShared on two shards succeeded")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	var tuples int64
	for _, st := range sys.ShardStats() {
		tuples += st.Tuples
	}
	if tuples != 0 || sys.TotalResults() != 0 {
		t.Fatalf("refused PushShared ingested %d tuples, %d results", tuples, sys.TotalResults())
	}
}

// A checkpoint of one inline shard restores into two shards: keyed state
// re-hashes on the key attributes the checkpoint's analysis assigned, and
// the per-query counts continue those of a one-engine run.
func TestInlineCheckpointRestoresIntoTwoShards(t *testing.T) {
	ref := buildPerf(t, rumor.New())
	one := buildPerf(t, rumor.New())
	pushPerf(t, ref.Push, 0, 250)
	pushPerf(t, one.Push, 0, 250)
	var buf bytes.Buffer
	if err := one.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	two, err := rumor.RestoreSharded(&buf, rumor.ShardConfig{Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if got := two.NumShards(); got != 2 {
		t.Fatalf("restored into %d shards, want 2", got)
	}
	pushPerf(t, ref.Push, 250, 500)
	pushPerf(t, two.Push, 250, 500)
	if err := two.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"hot", "warm"} {
		if got, want := two.ResultCount(q), ref.ResultCount(q); got != want || want == 0 {
			t.Fatalf("query %s: %d results, one-engine run %d (nonzero)", q, got, want)
		}
	}
}

// OnResult may be swapped at any time: on two shards, callbacks change
// while another goroutine pushes, and every result reaches exactly one of
// them (run under -race).
func TestOnResultSwapWhilePushing(t *testing.T) {
	ref := buildPerf(t, rumor.New())
	sys := buildPerf(t, rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 8}))
	var a, b atomic.Int64
	cbA := func(string, int64, []int64) { a.Add(1) }
	cbB := func(string, int64, []int64) { b.Add(1) }
	sys.OnResult(cbA)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pushPerf(t, sys.Push, 0, 2000)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			if i%2 == 0 {
				sys.OnResult(cbB)
			} else {
				sys.OnResult(cbA)
			}
			continue
		}
		break
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	pushPerf(t, ref.Push, 0, 2000)
	if got, want := a.Load()+b.Load(), ref.TotalResults(); got != want || want == 0 {
		t.Fatalf("%d callbacks across the swaps, want %d (nonzero)", got, want)
	}
}
