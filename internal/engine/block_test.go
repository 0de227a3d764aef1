package engine

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mop"
	"repro/internal/workload"
)

// w1Engine lowers the optimized 1000-query Workload 1 plan (§5.2): one
// predicate-index select m-op over S feeding one shared ; m-op, whose right
// port reads T through the AN index.
func w1Engine(t *testing.T) (*Engine, workload.Params) {
	t.Helper()
	params, qs := w1Queries(t, 1000)
	return optimizedEngine(t, params.Catalog(), qs, false), params
}

// columns returns n rows of arity attributes, every value v.
func columns(n, arity int, v int64) (ts []int64, cols [][]int64) {
	ts = make([]int64, n)
	cols = make([][]int64, arity)
	for a := range cols {
		cols[a] = make([]int64, n)
		for i := range cols[a] {
			cols[a][i] = v
		}
	}
	return ts, cols
}

// TestW1BlockEdges pins Stats.BlockEdges on the Workload 1 plan: the two
// source edges and every σ output carry blocks (their consumers are the
// select and ; m-ops); only the ; outputs, which are tuples, do not. It also
// shows the engine using the T→; edge: a T batch is delivered as a block.
func TestW1BlockEdges(t *testing.T) {
	e, params := w1Engine(t)
	st := e.plan.Stats()
	selectOuts, seqOuts := 0, 0
	for _, n := range e.plan.Nodes {
		seen := map[int]bool{}
		for _, o := range n.Ops {
			ed, _ := e.plan.EdgeOf(o.Out)
			if o.Out == nil || seen[ed.ID] {
				continue
			}
			seen[ed.ID] = true
			switch n.Kind {
			case core.KindSelect:
				selectOuts++
			case core.KindSeq:
				seqOuts++
			}
		}
	}
	if selectOuts < 2 || seqOuts < 2 {
		t.Fatalf("unexpected W1 plan shape: %d σ output edges, %d ; output edges", selectOuts, seqOuts)
	}
	if want := 2 + selectOuts; st.BlockEdges != want || st.Edges != want+seqOuts {
		t.Fatalf("BlockEdges = %d of %d edges, want %d (S, T and %d σ outputs) of %d",
			st.BlockEdges, st.Edges, want, selectOuts, want+seqOuts)
	}

	ts, cols := columns(8, params.NumAttrs, 1)
	before := e.BlocksProcessed()
	if err := e.PushColumns("T", ts, cols); err != nil {
		t.Fatal(err)
	}
	if got := e.BlocksProcessed() - before; got != 1 {
		t.Fatalf("a T batch moved %d blocks, want 1 (the T→; edge)", got)
	}
}

// TestSeqBlockMissMaterializesNothing is the zero-materialization guard: a T
// batch whose a0 no θ3 constant names reaches no state group, so pushing it
// through the 1000-query plan builds no tuple — no allocation, and the tuple
// pool neither shrinks nor grows. The pool is empty when the misses start,
// which makes a draw visible even if the tuple were handed back: Get would
// have to allocate it and the release would leave it in the pool.
func TestSeqBlockMissMaterializesNothing(t *testing.T) {
	e, params := w1Engine(t)
	// Store instances of one query first, so a hit has something to match.
	var c1, c3 int64
	for _, n := range e.plan.Nodes {
		if n.Kind == core.KindSeq {
			o := n.Ops[0]
			_, c1, _, _ = expr.IndexableEq(o.In[0].Producer.Def.Pred)
			_, c3, _, _ = expr.RightIndexableEq(o.Def.Pred2)
		}
	}
	sts, scols := columns(64, params.NumAttrs, c1)
	if err := e.PushColumns("S", sts, scols); err != nil {
		t.Fatal(err)
	}
	miss := int64(params.ConstDomain) + 5 // outside the constant domain
	ts, cols := columns(256, params.NumAttrs, miss)
	push := func() {
		if err := e.PushColumns("T", ts, cols); err != nil {
			t.Fatal(err)
		}
	}
	if free := e.pool.FreeCount(); free != 0 {
		t.Fatalf("tuple pool holds %d tuples after the S batch, want an empty pool to start from", free)
	}
	push() // warm the block pool
	results := e.TotalResults()
	if n := testing.AllocsPerRun(50, push); n != 0 {
		t.Fatalf("an all-miss T batch allocates %v times per push, want 0", n)
	}
	if free := e.pool.FreeCount(); free != 0 {
		t.Fatalf("all-miss batches left %d tuples in the pool: rows were materialized", free)
	}
	if got := e.TotalResults(); got != results {
		t.Fatalf("all-miss batches produced %d results", got-results)
	}

	// The same batch on that query's θ3 constant does reach its group.
	for i := range cols[0] {
		cols[0][i] = c3
	}
	push()
	if e.TotalResults() == results {
		t.Fatal("a T batch on a named constant matched nothing: the guard above proves nothing")
	}
}

// storedInstances sums the live instances of the engine's ; and µ m-ops.
func storedInstances(e *Engine) int {
	n := 0
	for _, rn := range e.nodes {
		if m, ok := rn.m.(*mop.SeqMOp); ok {
			n += m.Size()
		}
	}
	return n
}

// TestSeqStoreBlockAllocFree: a row that a ; or µ group stores from a block
// is a pooled copy owned by its instance, and it goes back to the engine's
// tuple pool when the instance dies. The feed repeats one lap of S/T
// batches, shifted in time by more than any window, and T's a0 runs
// through the constant domain in every lap, so every group (a W1 group is
// reached only through its θ3 constant on a0) is probed and expires in
// every lap. From the second lap on the stores then go through the same
// states as in the lap before: once two laps have warmed them, a third
// allocates nothing. A T batch past every window,
// whose rows name every constant so that every group is probed and
// expires, then returns every stored instance's tuples to the pool: its
// start, and for µ its state.
func TestSeqStoreBlockAllocFree(t *testing.T) {
	for _, c := range []struct {
		name    string
		build   func(*testing.T) (*Engine, workload.Params)
		perInst int // pooled tuples a stored instance holds
	}{
		{"w1", w1Engine, 1},
		{"w2", func(t *testing.T) (*Engine, workload.Params) { return w2Engine(t) }, 1},
		{"w2mu", func(t *testing.T) (*Engine, workload.Params) {
			params := workload.DefaultParams()
			return optimizedEngine(t, params.Catalog(), automatonQueries(t, params.Workload2Mu()), false), params
		}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, params := c.build(t)
			const lap, laps = 8, 3
			lapTS, cols := w2Ticks(lap, params)
			for k := 1; k < len(cols); k += 2 {
				for i := range cols[k][0] {
					cols[k][0][i] = int64((k/2*len(cols[k][0]) + i) % params.ConstDomain)
				}
			}
			span := lapTS[len(lapTS)-1][len(lapTS[0])-1] + 1
			var ts [][]int64
			for r := 0; r < laps; r++ {
				for _, b := range lapTS {
					shifted := make([]int64, len(b))
					for i, v := range b {
						shifted[i] = v + int64(r)*span
					}
					ts = append(ts, shifted)
				}
			}
			cols = slices.Repeat(cols, laps)
			next := 0
			for ; next < 2*lap; next++ {
				pushTick(t, e, ts, cols, next)
			}
			if n := testing.AllocsPerRun(lap-1, func() {
				pushTick(t, e, ts, cols, next)
				next++
			}); n != 0 {
				t.Fatalf("an S+T pair of a repeated lap allocates %v times, want 0", n)
			}

			stored := storedInstances(e)
			if stored == 0 {
				t.Fatal("no instance is stored; the pool check below proves nothing")
			}
			xts, xcols := columns(params.ConstDomain, params.NumAttrs, 0)
			for i := range xts {
				xts[i] = int64(laps)*span + 2*int64(params.WindowDomain)
				for a := range xcols {
					xcols[a][i] = int64(i)
				}
			}
			free := e.pool.FreeCount()
			if err := e.PushColumns("T", xts, xcols); err != nil {
				t.Fatal(err)
			}
			if left := storedInstances(e); left != 0 {
				t.Fatalf("%d instances survive a T batch past every window", left)
			}
			got := e.pool.FreeCount() - free
			if got < c.perInst*stored {
				t.Fatalf("expiring %d stored instances returned %d tuples to the pool, want at least %d", stored, got, c.perInst*stored)
			}
			t.Logf("expiring %d stored instances returned %d tuples to the pool", stored, got)
		})
	}
}
