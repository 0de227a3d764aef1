package live

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

// w1Queries is the Workload 1 query set over n queries.
func w1Queries(b *testing.B, n int) (workload.Params, []*core.Query) {
	p := workload.DefaultParams()
	p.NumQueries = n
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	return p, qs
}

// liveRoot is the root of one Workload 1 query drawn apart from the base
// population (seed 77), the query every benchmark iteration adds.
func liveRoot(b *testing.B) *core.Logical {
	p := workload.DefaultParams()
	p.Seed, p.NumQueries = 77, 1
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	return qs[0].Root
}

// BenchmarkChurnAddRemove measures one live add + remove cycle against a
// running Workload 1 plan with warm operator state, at a 500-query base
// population (the add-latency scaling point ROADMAP tracks).
func BenchmarkChurnAddRemove(b *testing.B) {
	p, qs := w1Queries(b, 500)
	plan, e := buildEngine(b, p.Catalog(), rules.Options{}, qs...)
	for _, ev := range p.GenStreams(2000) {
		if err := e.Push(ev.Source, ev.Tuple); err != nil {
			b.Fatal(err)
		}
	}
	root := liveRoot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := core.NewQuery("live_bench", root)
		d, err := AddQuery(plan, rules.Options{}, q)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		d, err = RemoveQuery(plan, q.ID)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddQueryLive times the plan side of one live add on a Workload
// 1 plan with channels on: the naive build, the incremental rule pass and
// the validation of AddQuery. The engine splice is left to
// BenchmarkChurnAddRemove; the matching removal runs untimed. An add that
// expands only its sharing partners keeps the 1000/250 time ratio near 4
// (every Workload 1 query is a partner of every other).
func BenchmarkAddQueryLive(b *testing.B) {
	for _, n := range []int{250, 1000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			opt := rules.Options{Channels: true}
			p, qs := w1Queries(b, n)
			plan, _ := buildEngine(b, p.Catalog(), opt, qs...)
			root := liveRoot(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := core.NewQuery("live_bench", root)
				if _, err := AddQuery(plan, opt, q); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := RemoveQuery(plan, q.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkApplyDelta times the engine half of one live add + remove
// cycle on a Workload 1 plan with channels on and warm operator state:
// the two ApplyDelta calls only, with AddQuery and RemoveQuery (the plan
// half, BenchmarkAddQueryLive's subject) untimed. after=2000 runs the
// same cycle once 2 000 earlier cycles have gone by, so a cost that grows
// with the plan's history, not its size, shows as the ratio to after=0.
func BenchmarkApplyDelta(b *testing.B) {
	for _, c := range []struct{ base, after int }{{250, 0}, {250, 2000}, {1000, 0}} {
		b.Run(fmt.Sprintf("base=%d/after=%d", c.base, c.after), func(b *testing.B) {
			opt := rules.Options{Channels: true}
			p, qs := w1Queries(b, c.base)
			plan, e := buildEngine(b, p.Catalog(), opt, qs...)
			for _, ev := range p.GenStreams(2000) {
				if err := e.Push(ev.Source, ev.Tuple); err != nil {
					b.Fatal(err)
				}
			}
			root := liveRoot(b)
			cycle := func(timed bool) {
				q := core.NewQuery("live_bench", root)
				d, err := AddQuery(plan, opt, q)
				if err != nil {
					b.Fatal(err)
				}
				if timed {
					b.StartTimer()
				}
				if err := e.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				if timed {
					b.StopTimer()
				}
				if d, err = RemoveQuery(plan, q.ID); err != nil {
					b.Fatal(err)
				}
				if timed {
					b.StartTimer()
				}
				if err := e.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				if timed {
					b.StopTimer()
				}
			}
			for i := 0; i < c.after; i++ {
				cycle(false)
			}
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				cycle(true)
			}
		})
	}
}
