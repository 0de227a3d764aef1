package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/workload"
)

// TestChurnSmoke runs the churn measurement end to end at a tiny scale.
func TestChurnSmoke(t *testing.T) {
	cfg := Config{Tuples: 3000, Rounds: 120, MaxQueries: 60, Seed: 1}
	rows, err := cfg.Churn(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 workloads × {engine, shard=2} × {plain, channels}
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	sawWidth := false
	for _, r := range rows {
		if r.Adds == 0 || r.Removes == 0 {
			t.Fatalf("%s %s: no churn operations measured (%+v)", r.Workload, r.Mode, r)
		}
		if r.SteadyEPS <= 0 || r.ChurnEPS <= 0 {
			t.Fatalf("%s %s: non-positive throughput (%+v)", r.Workload, r.Mode, r)
		}
		if r.TotalSlots > 0 {
			sawWidth = true
			if r.MinSlotRatio < 0.5 {
				t.Fatalf("%s %s: channel width unbounded under churn: min live ratio %.2f (%+v)",
					r.Workload, r.Mode, r.MinSlotRatio, r)
			}
		}
	}
	if !sawWidth {
		t.Fatal("no channel-enabled row reported membership width")
	}
	var sb strings.Builder
	FprintChurn(&sb, rows)
	if !strings.Contains(sb.String(), "W1") {
		t.Fatalf("table rendering broken:\n%s", sb.String())
	}
}

// BenchmarkChurnAddRemove measures one live add + remove cycle against a
// running Workload 1 plan with warm operator state, at a 500-query base
// population (the add-latency scaling point ROADMAP tracks).
func BenchmarkChurnAddRemove(b *testing.B) {
	p := workload.DefaultParams()
	p.NumQueries = 500
	aqs := p.Workload1()
	qs, err := workload.ToRUMOR(aqs)
	if err != nil {
		b.Fatal(err)
	}
	plan := core.NewPhysical(p.Catalog())
	for _, q := range qs {
		if err := plan.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := rules.Optimize(plan, rules.Options{}); err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(plan)
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range p.GenStreams(2000) {
		if err := e.Push(ev.Source, ev.Tuple); err != nil {
			b.Fatal(err)
		}
	}
	m := live.NewMaintainer(plan, rules.Options{})
	p2 := p
	p2.Seed = 77
	p2.NumQueries = 1
	liveQ, err := workload.ToRUMOR(p2.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	root := liveQ[0].Root
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := core.NewQuery("live_bench", root)
		d, err := m.AddQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		if err := live.Apply(d, e); err != nil {
			b.Fatal(err)
		}
		d, err = m.RemoveQuery(q.ID)
		if err != nil {
			b.Fatal(err)
		}
		if err := live.Apply(d, e); err != nil {
			b.Fatal(err)
		}
	}
}

// w1Plan plans n Workload 1 queries naively (one op per node, one stream
// per edge), ready for the rule engine.
func w1Plan(b *testing.B, n int) *core.Physical {
	p := workload.DefaultParams()
	p.NumQueries = n
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		b.Fatal(err)
	}
	plan := core.NewPhysical(p.Catalog())
	for _, q := range qs {
		if err := plan.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	return plan
}

// BenchmarkOptimizeW1 times one batch rule pass (rules.Optimize, channels
// off) over a freshly planned Workload 1 set. A pass linear in the plan
// keeps the 4000/1000 time ratio near 4.
func BenchmarkOptimizeW1(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("q=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plan := w1Plan(b, n)
				runtime.GC() // the previous iteration's plan is not this one's cost
				b.StartTimer()
				if err := rules.Optimize(plan, rules.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAddQueryLive times the plan side of one live add on a Workload
// 1 plan with channels on: the naive build, the incremental rule pass and
// the validation of live.Maintainer.AddQuery. The engine splice is left
// to BenchmarkChurnAddRemove; the matching removal runs untimed. An add
// that expands only its sharing partners keeps the 1000/250 time ratio
// near 4 (every Workload 1 query is a partner of every other).
func BenchmarkAddQueryLive(b *testing.B) {
	for _, n := range []int{250, 1000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			opt := rules.Options{Channels: true}
			plan := w1Plan(b, n)
			if err := rules.Optimize(plan, opt); err != nil {
				b.Fatal(err)
			}
			m := live.NewMaintainer(plan, opt)
			p := workload.DefaultParams()
			p.Seed, p.NumQueries = 77, 1
			liveQ, err := workload.ToRUMOR(p.Workload1())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := core.NewQuery("live_bench", liveQ[0].Root)
				if _, err := m.AddQuery(q); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := m.RemoveQuery(q.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
