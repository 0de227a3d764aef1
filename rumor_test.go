package rumor_test

import (
	"testing"

	rumor "repro"
	"repro/internal/expr"
)

func TestSystemCQLLifecycle(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		err := sys.ExecScript(`
CREATE STREAM CPU(pid, load);
LET smoothed := AGG(avg(load) OVER 60 BY pid FROM CPU);
QUERY hot := FILTER(load > 90, @smoothed);
QUERY warm := FILTER(load > 50, @smoothed);
`)
		if err != nil {
			t.Fatal(err)
		}
		var results []string
		sys.OnResult(func(q string, ts int64, vals []int64) {
			results = append(results, q)
		})
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		info := sys.PlanInfo()
		if info.Queries != 2 {
			t.Fatalf("info = %+v", info)
		}
		// The identical smoothing aggregates must have been CSE'd: 1 agg op +
		// 2 selection ops = 3 operators.
		if info.Operators != 3 {
			t.Fatalf("operators = %d, want 3 (shared α)\n%s", info.Operators, sys.PlanString())
		}
		if err := sys.Push("CPU", 0, 7, 95); err != nil {
			t.Fatal(err)
		}
		if err := sys.Push("CPU", 1, 7, 60); err != nil {
			t.Fatal(err)
		}
		k.settle(t, sys)
		if sys.ResultCount("hot") != 1 {
			t.Fatalf("hot = %d", sys.ResultCount("hot"))
		}
		if sys.ResultCount("warm") != 2 {
			t.Fatalf("warm = %d", sys.ResultCount("warm"))
		}
		if sys.TotalResults() != 3 || len(results) != 3 {
			t.Fatalf("total = %d, callbacks = %d", sys.TotalResults(), len(results))
		}
	})
}

func TestSystemBuilders(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if err := sys.DeclareStream("S", "", "a", "b"); err != nil {
			t.Fatal(err)
		}
		root := rumor.Filter(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 2}, rumor.Scan("S"))
		if err := sys.AddQuery("big", root); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 5; i++ {
			if err := sys.Push("S", i, i, 0); err != nil {
				t.Fatal(err)
			}
		}
		k.settle(t, sys)
		if sys.ResultCount("big") != 2 {
			t.Fatalf("big = %d", sys.ResultCount("big"))
		}
	})
}

func TestPushShared(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		k.needsOneShard(t)
		for _, n := range []string{"S1", "S2", "S3"} {
			if err := sys.DeclareStream(n, "grp", "a", "b"); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.DeclareStream("T", "", "a", "b"); err != nil {
			t.Fatal(err)
		}
		pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
		for i, n := range []string{"S1", "S2", "S3"} {
			root := rumor.Seq(pred, 100, rumor.Scan(n), rumor.Scan("T"))
			if err := sys.AddQuery([]string{"q1", "q2", "q3"}[i], root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		if sys.PlanInfo().Channels != 1 {
			t.Fatalf("channels = %d\n%s", sys.PlanInfo().Channels, sys.PlanString())
		}
		if err := sys.PushShared([]string{"S1", "S3"}, 0, 9, 9); err != nil {
			t.Fatal(err)
		}
		if err := sys.Push("T", 1, 9, 0); err != nil {
			t.Fatal(err)
		}
		k.settle(t, sys)
		if sys.ResultCount("q1") != 1 || sys.ResultCount("q2") != 0 || sys.ResultCount("q3") != 1 {
			t.Fatalf("counts: %d %d %d",
				sys.ResultCount("q1"), sys.ResultCount("q2"), sys.ResultCount("q3"))
		}
	})
}

func TestSystemErrors(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if err := sys.Optimize(rumor.Options{}); err == nil {
			t.Fatal("optimize without queries should fail")
		}
		if err := sys.Push("S", 0, 1); err == nil {
			t.Fatal("push before optimize should fail")
		}
		if err := sys.DeclareStream("S", "", "a"); err != nil {
			t.Fatal(err)
		}
		if err := sys.DeclareStream("S", "", "a"); err == nil {
			t.Fatal("duplicate stream should fail")
		}
		if err := sys.DeclareStream("bad", "", "x", "x"); err == nil {
			t.Fatal("duplicate attribute should fail")
		}
		if err := sys.AddQuery("q", rumor.Filter(expr.True{}, rumor.Scan("S"))); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddQuery("q", rumor.Filter(expr.True{}, rumor.Scan("S"))); err == nil {
			t.Fatal("duplicate query name should fail")
		}
		if err := sys.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{}); err == nil {
			t.Fatal("double optimize should fail")
		}
		if err := sys.AddQuery("late", rumor.Scan("S")); err == nil {
			t.Fatal("adding queries after optimize should fail")
		}
		// Declaring streams after Optimize is allowed (the stream enters the
		// running plan when an AddQueryLive first scans it).
		if err := sys.DeclareStream("late", "", "a"); err != nil {
			t.Fatalf("declaring streams after optimize should succeed: %v", err)
		}
		if err := sys.DeclareStream("late", "", "a"); err == nil {
			t.Fatal("duplicate stream declaration should fail")
		}
		if err := sys.ExecScript("CREATE STREAM Z(a); QUERY z := Z;"); err == nil {
			t.Fatal("scripts after optimize should fail")
		}
		if sys.ResultCount("nope") != 0 {
			t.Fatal("unknown query count should be 0")
		}
		if err := sys.PushShared(nil, 0); err == nil {
			t.Fatal("empty PushShared should fail")
		}
		if err := sys.PushShared([]string{"NOPE"}, 0, 1); err == nil {
			t.Fatal("unknown stream in PushShared should fail")
		}
	})
}

func TestPushSharedNotChannelized(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		k.needsOneShard(t)
		if err := sys.DeclareStream("A", "", "a"); err != nil {
			t.Fatal(err)
		}
		if err := sys.DeclareStream("B", "", "a"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddQuery("qa", rumor.Scan("A")); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddQuery("qb", rumor.Scan("B")); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		if err := sys.PushShared([]string{"A", "B"}, 0, 1); err == nil {
			t.Fatal("PushShared across distinct edges should fail")
		}
	})
}

func TestPlanInfoBeforeOptimize(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if info := sys.PlanInfo(); info.Queries != 0 {
			t.Fatal("empty info expected")
		}
		if sys.PlanString() == "" {
			t.Fatal("PlanString should describe the unoptimized state")
		}
		if sys.TotalResults() != 0 {
			t.Fatal("no results before optimize")
		}
	})
}

func TestPlanDot(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if sys.PlanDot() == "" {
			t.Fatal("PlanDot before optimize should render an empty graph")
		}
		if err := sys.DeclareStream("S", "", "a"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddQuery("q", rumor.Filter(expr.True{}, rumor.Scan("S"))); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
		dot := sys.PlanDot()
		if dot == "" || dot == "digraph rumor {}\n" {
			t.Fatalf("PlanDot missing content: %q", dot)
		}
	})
}
