package rules_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

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
