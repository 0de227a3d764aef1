package rumor_test

import (
	"fmt"
	"sync"
	"testing"

	rumor "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// The churn equivalence tests drive the live query lifecycle: starting
// from an optimized plan, they interleave ≥100 AddQueryLive/RemoveQuery
// operations with pushes and assert that every SURVIVING query's result
// count equals a from-scratch single-engine run that planned only the
// survivors up front. Transient queries (added and later removed
// mid-stream) must not disturb the survivors' shared operator state.
//
// To keep the equivalence exact, every surviving query is registered
// before the first push (half via Optimize, half via AddQueryLive):
// queries added mid-stream start without window history (see the live
// package doc), so only transients are churned mid-stream.

// churnSys is the surface the equivalence harness needs; satisfied by
// both *rumor.System and *rumor.ShardedSystem.
type churnSys interface {
	DeclareStream(name, sharableLabel string, attrs ...string) error
	AddQuery(name string, root *rumor.Logical) error
	AddQueryLive(name string, root *rumor.Logical) error
	RemoveQuery(name string) error
	Optimize(opt rumor.Options) error
	Push(streamName string, ts int64, vals ...int64) error
	ResultCount(query string) int64
	TotalResults() int64
}

// churnWorkload generates one of the paper's workloads at test scale,
// with a compressed constant domain so matches are dense.
func churnWorkload(t *testing.T, wl string, nq, tuples int, seed int64) (map[string]core.SourceDecl, []*core.Query, []workload.Event) {
	t.Helper()
	p := workload.DefaultParams()
	p.NumQueries = nq
	p.Seed = seed
	p.ConstDomain = 50
	p.WindowDomain = 200
	switch wl {
	case "w1":
		qs, err := workload.ToRUMOR(p.Workload1())
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs, p.GenStreams(tuples)
	case "w2":
		qs, err := workload.ToRUMOR(p.Workload2Seq())
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs, p.GenStreams(tuples)
	case "w2mu":
		qs, err := workload.ToRUMOR(p.Workload2Mu())
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs, p.GenStreams(tuples)
	case "w3":
		const k = 5
		return p.Workload3Catalog(k), p.Workload3(k), p.Workload3Rounds(k, tuples/(k+1))
	}
	t.Fatalf("unknown workload %s", wl)
	return nil, nil, nil
}

func declareAll(t *testing.T, sys churnSys, catalog map[string]core.SourceDecl) {
	t.Helper()
	for name, decl := range catalog {
		if err := sys.DeclareStream(name, decl.Label, decl.Schema.Attrs...); err != nil {
			t.Fatal(err)
		}
	}
}

// runChurn drives one churn scenario and checks survivor equivalence.
// drain establishes quiescence before counts are read (no-op for the
// single-threaded System).
func runChurn(t *testing.T, sys churnSys, drain func(), opt rumor.Options,
	catalog map[string]core.SourceDecl, surv, trans []*core.Query, events []workload.Event) {
	t.Helper()

	declareAll(t, sys, catalog)
	half := len(surv) / 2
	for _, q := range surv[:half] {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(opt); err != nil {
		t.Fatal(err)
	}
	churnOps := 0
	// The second half of the survivors joins live, before the first push.
	for _, q := range surv[half:] {
		if err := sys.AddQueryLive(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
		churnOps++
	}

	// Interleave transient add/remove with pushes: one chunk of events,
	// one transient added, the transient added two chunks earlier removed.
	chunks := len(trans)
	var activeTrans []string
	next := 0
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(events)/chunks, (i+1)*len(events)/chunks
		for _, ev := range events[lo:hi] {
			if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		q := trans[i]
		name := fmt.Sprintf("tr_%d", i)
		if err := sys.AddQueryLive(name, q.Root); err != nil {
			t.Fatal(err)
		}
		activeTrans = append(activeTrans, name)
		churnOps++
		if len(activeTrans) > 2 {
			if err := sys.RemoveQuery(activeTrans[next]); err != nil {
				t.Fatal(err)
			}
			next++
			churnOps++
		}
	}
	for ; next < len(activeTrans); next++ {
		if err := sys.RemoveQuery(activeTrans[next]); err != nil {
			t.Fatal(err)
		}
		churnOps++
	}
	drain()
	if churnOps < 100 {
		t.Fatalf("only %d churn operations, want ≥ 100", churnOps)
	}

	// Reference: a from-scratch single engine planning only the survivors.
	ref := rumor.New()
	declareAll(t, ref, catalog)
	for _, q := range surv {
		if err := ref.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Optimize(opt); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := ref.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, q := range surv {
		got, want := sys.ResultCount(q.Name), ref.ResultCount(q.Name)
		if got != want {
			t.Fatalf("query %s: churn run = %d results, from-scratch = %d", q.Name, got, want)
		}
		total += got
	}
	if total == 0 {
		t.Fatal("survivors produced no results; the equivalence check is vacuous")
	}
}

func TestChurnEquivalenceSystem(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w2mu", "w3"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				catalog, surv, events := churnWorkload(t, wl, 40, 4200, 1)
				_, trans, _ := churnWorkload(t, wl, 40, 0, 99)
				runChurn(t, rumor.New(), func() {}, rumor.Options{Channels: channels},
					catalog, surv, trans, events)
			})
		}
	}
}

func TestChurnEquivalenceSharded(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w3"} {
		for _, shards := range []int{1, 2, 4} {
			for _, channels := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/channels=%v", wl, shards, channels), func(t *testing.T) {
					catalog, surv, events := churnWorkload(t, wl, 40, 4200, 1)
					_, trans, _ := churnWorkload(t, wl, 40, 0, 99)
					sys := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 64})
					defer sys.Close()
					runChurn(t, sys, func() {
						if err := sys.Drain(); err != nil {
							t.Fatal(err)
						}
					}, rumor.Options{Channels: channels}, catalog, surv, trans, events)
				})
			}
		}
	}
}

// clusterChurnSys is a churnSys deployed over shard workers: Optimize
// dials them.
type clusterChurnSys struct {
	*rumor.System
	nodes []rumor.ClusterNode
}

func (c clusterChurnSys) Optimize(opt rumor.Options) error {
	return c.DialCluster(opt, rumor.ClusterConfig{Nodes: c.nodes, BatchSize: 64, HeartbeatInterval: -1})
}

// TestChurnEquivalenceCluster runs the churn scenario over two pipe
// workers: every live add and remove crosses the wire, and the survivors
// must count what a from-scratch single engine counts.
func TestChurnEquivalenceCluster(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w3"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				catalog, surv, events := churnWorkload(t, wl, 40, 4200, 1)
				_, trans, _ := churnWorkload(t, wl, 40, 0, 99)
				nodes, _ := startPipeWorkers(t, 2)
				sys := rumor.NewSharded(rumor.ShardConfig{})
				defer sys.Close()
				runChurn(t, clusterChurnSys{sys, nodes}, func() {
					if err := sys.Drain(); err != nil {
						t.Fatal(err)
					}
				}, rumor.Options{Channels: channels}, catalog, surv, trans, events)
			})
		}
	}
}

// TestChurnConcurrentPush exercises AddQueryLive/RemoveQuery racing with
// concurrent PushColumns callers on a sharded system (run under -race).
func TestChurnConcurrentPush(t *testing.T) {
	catalog, qs, events := churnWorkload(t, "w2", 20, 6000, 3)
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 32})
	defer sys.Close()
	declareAll(t, sys, catalog)
	for _, q := range qs[:10] {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const batch = 100
		for lo := 0; lo < len(events); lo += batch {
			hi := min(lo+batch, len(events))
			perSrc := map[string][]int{}
			var order []string
			for i, ev := range events[lo:hi] {
				if perSrc[ev.Source] == nil {
					order = append(order, ev.Source)
				}
				perSrc[ev.Source] = append(perSrc[ev.Source], lo+i)
			}
			for _, src := range order {
				var ts []int64
				cols := make([][]int64, len(events[perSrc[src][0]].Tuple.Vals))
				for _, i := range perSrc[src] {
					ts = append(ts, events[i].Tuple.TS)
					for a, v := range events[i].Tuple.Vals {
						cols[a] = append(cols[a], v)
					}
				}
				if err := sys.PushColumns(src, ts, cols); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("c_%d", i)
		if err := sys.AddQueryLive(name, qs[10+i%10].Root); err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			if err := sys.RemoveQuery(fmt.Sprintf("c_%d", i-2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if sys.TotalResults() == 0 {
		t.Fatal("no results under concurrent churn")
	}
}

// TestResultCountDuringLiveChurn reads result counts while live adds and
// removes splice the replicas of a quiescent sharded system (run under
// -race). Every splice folds the local engines' per-sink counters into
// their per-query bases; with no pushes in flight, a reader must keep
// seeing exactly the counts the feed produced, never a count caught
// halfway through a fold.
func TestResultCountDuringLiveChurn(t *testing.T) {
	catalog, qs, events := churnWorkload(t, "w2", 20, 3000, 5)
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2})
	defer sys.Close()
	declareAll(t, sys, catalog)
	for _, q := range qs[:10] {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 10)
	for i, q := range qs[:10] {
		want[i] = sys.ResultCount(q.Name)
	}
	wantTotal := sys.TotalResults()
	if wantTotal == 0 {
		t.Fatal("no results before the churn; the check is vacuous")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, q := range qs[:10] {
				if got := sys.ResultCount(q.Name); got != want[i] {
					t.Errorf("%s: count %d during churn, %d before", q.Name, got, want[i])
					return
				}
			}
			if got := sys.TotalResults(); got != wantTotal {
				t.Errorf("total %d during churn, %d before", got, wantTotal)
				return
			}
		}
	}()
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("c_%d", i)
		if err := sys.AddQueryLive(name, qs[10+i%10].Root); err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			if err := sys.RemoveQuery(fmt.Sprintf("c_%d", i-2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
