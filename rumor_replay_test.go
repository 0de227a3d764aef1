package rumor_test

import (
	"fmt"
	"testing"

	rumor "repro"
	"repro/internal/expr"
	"repro/internal/workload"
)

// Full-window state replay on live re-merge: a query added mid-stream into
// an existing shared channel-mode stateful group must produce, from its
// first batch onward, exactly the results the from-scratch plan produces —
// whenever the shared store covers the new member's gating (here: range
// selections, the live member's predicate implying coverage of the
// newcomer's). The tests drive seq, join, and agg groups through the
// single engine and the sharded runtime (1/2/4 shards).

// replaySys is the surface the replay harness needs.
type replaySys interface {
	DeclareStream(name, sharableLabel string, attrs ...string) error
	AddQuery(name string, root *rumor.Logical) error
	AddQueryLive(name string, root *rumor.Logical) error
	RemoveQuery(name string) error
	Optimize(opt rumor.Options) error
	Push(streamName string, ts int64, vals ...int64) error
	ResultCount(query string) int64
}

// replayEvents generates interleaved S/T tuples: a0 drawn from a small
// domain (so equi-matches are dense), a1 from [0,1000) (the range-gating
// attribute). The agg shape scans only S, so its event stream drops T.
func replayEvents(shape string, n int, seed int64) []workload.Event {
	p := workload.DefaultParams()
	p.Seed = seed
	p.ConstDomain = 1000
	events := p.GenStreams(n)
	for _, ev := range events {
		ev.Tuple.Vals[0] %= 8 // dense join/seq keys
	}
	if shape == "agg" {
		kept := events[:0]
		for _, ev := range events {
			if ev.Source == "S" {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	return events
}

func declareST(t *testing.T, sys replaySys) {
	t.Helper()
	attrs := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
	if err := sys.DeclareStream("S", "", attrs...); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeclareStream("T", "", attrs...); err != nil {
		t.Fatal(err)
	}
}

// replayQuery builds one gated query of the given shape: a range selection
// σ(a1 > lo) over S feeding a windowed stateful operator against T (for
// agg, a plain sliding window over the selection).
func replayQuery(shape string, lo int64) *rumor.Logical {
	sel := rumor.Filter(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: lo}, rumor.Scan("S"))
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	const w = 512
	switch shape {
	case "seq":
		return rumor.Seq(pred, w, sel, rumor.Scan("T"))
	case "mu":
		rebind := expr.NewAnd2(
			expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0},
			expr.AttrCmp2{L: 11, Op: expr.Lt, R: 1}, // last.a1 < T.a1
		)
		return rumor.Mu(rebind, expr.Not2{P: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}}, w, sel, rumor.Scan("T"))
	case "join":
		return rumor.Join(pred, w, sel, rumor.Scan("T"))
	case "agg":
		// groupBy a0, aggregate a1: the gating predicate (over a1) stays
		// evaluable against the window's stored columns.
		return rumor.Agg(rumor.Sum, 1, w, []int{0}, sel)
	}
	panic("unknown shape " + shape)
}

// runReplay drives one scenario: two base queries (a1>100, a1>200) are
// optimized with channels; events[:cut] flow; then a third query (a1>300,
// covered by both) joins live — and from that point on its results must
// match a from-scratch plan that knew it all along.
func runReplay(t *testing.T, shape string, mk func() replaySys, drain func()) {
	t.Helper()
	events := replayEvents(shape, 3000, 11)
	cut := len(events) / 2

	sys := mk()
	declareST(t, sys)
	for i, lo := range []int64{100, 200} {
		if err := sys.AddQuery(fmt.Sprintf("base_%d", i), replayQuery(shape, lo)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[:cut] {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddQueryLive("late", replayQuery(shape, 300)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[cut:] {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	drain()

	// Reference A: from-scratch with all three queries, full stream.
	ref := rumor.New()
	declareST(t, ref)
	for i, lo := range []int64{100, 200} {
		if err := ref.AddQuery(fmt.Sprintf("base_%d", i), replayQuery(shape, lo)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AddQuery("late", replayQuery(shape, 300)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	// Reference B: the same plan over only the pre-add prefix, to isolate
	// the results "late" would have produced before it subscribed.
	pre := rumor.New()
	declareST(t, pre)
	for i, lo := range []int64{100, 200} {
		if err := pre.AddQuery(fmt.Sprintf("base_%d", i), replayQuery(shape, lo)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.AddQuery("late", replayQuery(shape, 300)); err != nil {
		t.Fatal(err)
	}
	if err := pre.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[:cut] {
		if err := pre.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events {
		if err := ref.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}

	for i := range 2 {
		name := fmt.Sprintf("base_%d", i)
		if got, want := sys.ResultCount(name), ref.ResultCount(name); got != want {
			t.Errorf("%s: %d results, from-scratch %d", name, got, want)
		}
	}
	// The late subscriber's post-add results must equal the from-scratch
	// plan's post-add results: full-window replay, not a cold start.
	got := sys.ResultCount("late")
	want := ref.ResultCount("late") - pre.ResultCount("late")
	if got != want {
		t.Fatalf("late query: %d results after live add, from-scratch produces %d after the same point", got, want)
	}
	if want == 0 {
		t.Fatal("late query produced no post-add results; the replay check is vacuous")
	}
}

func TestReplayOnRemergeSystem(t *testing.T) {
	for _, shape := range []string{"seq", "mu", "join", "agg"} {
		t.Run(shape, func(t *testing.T) {
			runReplay(t, shape, func() replaySys { return rumor.New() }, func() {})
		})
	}
}

func TestReplayOnRemergeSharded(t *testing.T) {
	for _, shape := range []string{"seq", "join", "agg"} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", shape, shards), func(t *testing.T) {
				var sys *rumor.ShardedSystem
				runReplay(t, shape,
					func() replaySys {
						sys = rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 64})
						return sys
					},
					func() {
						if err := sys.Drain(); err != nil {
							t.Fatal(err)
						}
					})
				sys.Close()
			})
		}
	}
}

// TestReplayAfterSlotReuse drives the full churn-durability cycle on one
// query: subscribe, unsubscribe (slot tombstoned), re-subscribe (slot
// reused, stored bits scrubbed, window replayed). From the re-add on, the
// query must behave exactly as if it had never left — the shared store
// (gated by a surviving broader selection) retains everything its window
// needs, including tuples that arrived while it was away.
func TestReplayAfterSlotReuse(t *testing.T) {
	for _, shape := range []string{"seq", "join", "agg"} {
		t.Run(shape, func(t *testing.T) {
			eachRuntime(t, func(t *testing.T, k runtimeKind) {
				replayAfterSlotReuse(t, k, shape)
			})
		})
	}
}

func replayAfterSlotReuse(t *testing.T, k runtimeKind, shape string) {
	events := replayEvents(shape, 4000, 17)
	third := len(events) / 3

	sys := k.new(t)
	declareST(t, sys)
	for i, lo := range []int64{100, 200} {
		if err := sys.AddQuery(fmt.Sprintf("base_%d", i), replayQuery(shape, lo)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddQuery("cycled", replayQuery(shape, 300)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	slots := sys.PlanInfo().TotalSlots
	push := func(evs []workload.Event) {
		for _, ev := range evs {
			if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(events[:third])
	if err := sys.RemoveQuery("cycled"); err != nil {
		t.Fatal(err)
	}
	push(events[third : 2*third])
	if err := sys.AddQueryLive("cycled", replayQuery(shape, 300)); err != nil {
		t.Fatal(err)
	}
	if got := sys.PlanInfo().TotalSlots; got != slots {
		t.Fatalf("membership slots grew across an add/remove/add cycle: %d -> %d", slots, got)
	}
	push(events[2*third:])

	// Reference: "cycled" subscribed the whole time; its results
	// after the re-add point must coincide.
	ref := rumor.New()
	declareST(t, ref)
	for i, lo := range []int64{100, 200} {
		if err := ref.AddQuery(fmt.Sprintf("base_%d", i), replayQuery(shape, lo)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AddQuery("cycled", replayQuery(shape, 300)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	var refAtReadd int64
	for i, ev := range events {
		if i == 2*third {
			refAtReadd = ref.ResultCount("cycled")
		}
		if err := ref.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	k.settle(t, sys)
	got := sys.ResultCount("cycled")
	want := ref.ResultCount("cycled") - refAtReadd
	if got != want {
		t.Fatalf("re-merged query: %d results after re-add, continuous subscription produces %d", got, want)
	}
	if want == 0 {
		t.Fatal("re-merged query produced no post-re-add results; check is vacuous")
	}
	for i := range 2 {
		name := fmt.Sprintf("base_%d", i)
		if got, want := sys.ResultCount(name), ref.ResultCount(name); got != want {
			t.Errorf("%s disturbed by the cycle: %d vs %d", name, got, want)
		}
	}
}
