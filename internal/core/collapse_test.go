package core

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"repro/internal/expr"
)

// selectPlan plans one selection σ[a0=c](S) per constant and merges all of
// them into one m-op, so the node, S's consumer list and the src#S class
// list all outlive the removal of some of their ops.
func selectPlan(t *testing.T, consts ...int64) (*Physical, []*Query, []*Op) {
	t.Helper()
	p := NewPhysical(testCatalog())
	var qs []*Query
	var nodes []*Node
	for i, c := range consts {
		q := NewQuery(fmt.Sprintf("q%d", i), SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c}, Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
		nodes = append(nodes, p.OutputOf(q.ID).Producer.Node)
	}
	n, err := p.MergeNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p, qs, append([]*Op(nil), n.Ops...)
}

// weakOps returns weak pointers to the given ops and their output streams.
func weakOps(ops ...*Op) ([]weak.Pointer[Op], []weak.Pointer[StreamRef]) {
	var wo []weak.Pointer[Op]
	var ws []weak.Pointer[StreamRef]
	for _, o := range ops {
		wo = append(wo, weak.Make(o))
		ws = append(ws, weak.Make(o.Out))
	}
	return wo, ws
}

// requireReleased fails unless every weakly held op and stream has been
// garbage-collected: no index of the plan may keep a removed op reachable,
// not even past the length of a filtered slice.
func requireReleased(t *testing.T, p *Physical, wo []weak.Pointer[Op], ws []weak.Pointer[StreamRef]) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	for i := range wo {
		if wo[i].Value() != nil {
			t.Errorf("removed op %d is still reachable", i)
		}
		if ws[i].Value() != nil {
			t.Errorf("output stream of removed op %d is still reachable", i)
		}
	}
	runtime.KeepAlive(p)
}

func TestCollapsedOpsAreReleased(t *testing.T) {
	// The redundant ops come last in every list, where an in-place filter
	// would leave them past the new length.
	p, _, ops := selectPlan(t, 2, 1, 1, 1)
	wo, ws := weakOps(ops[2], ops[3])
	if _, err := p.CollapseOps(ops[1:]); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	requireReleased(t, p, wo, ws)
}

func TestRemovedQueryOpsAreReleased(t *testing.T) {
	p, qs, ops := selectPlan(t, 1, 2, 3)
	wo, ws := weakOps(ops[2])
	if err := p.RemoveQuery(qs[2].ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	requireReleased(t, p, wo, ws)
}

// chainPlan plans n copies of π(σ[a0=1](S)) and collapses the selections
// pairwise ({σ1,σ2}, {σ3,σ4}, ...), so copy 2i+1's projection reads copy
// 2i's selection. It returns the plan and, per copy, its (σ, π) ops.
func chainPlan(t *testing.T, n int) (*Physical, [][2]*Op) {
	t.Helper()
	p := NewPhysical(testCatalog())
	var ops [][2]*Op
	for i := 0; i < n; i++ {
		sel := SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("S"))
		q := NewQuery(fmt.Sprintf("q%d", i), ProjectL(&expr.SchemaMap{Cols: []expr.Expr{expr.Col{I: 1}}}, sel))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		proj := p.OutputOf(q.ID).Producer
		ops = append(ops, [2]*Op{proj.In[0].Producer, proj})
	}
	for i := 0; i+1 < n; i += 2 {
		if _, err := p.CollapseOps([]*Op{ops[i][0], ops[i+1][0]}); err != nil {
			t.Fatal(err)
		}
	}
	return p, ops
}

// TestCollapseGroupsMatchesSequential checks that one CollapseGroups call
// leaves the plan exactly as CollapseOps on each group in turn would, both
// for independent groups and for a group that reads another group's
// redundant output, in either order.
func TestCollapseGroupsMatchesSequential(t *testing.T) {
	cases := map[string]func(ops [][2]*Op) [][]*Op{
		// σ0 absorbs σ2; the projections of copies 0 and 1 read σ0 already.
		"independent": func(ops [][2]*Op) [][]*Op {
			return [][]*Op{{ops[0][0], ops[2][0]}, {ops[0][1], ops[1][1]}}
		},
		// The second group reads σ2's output, which the first removes.
		"nested": func(ops [][2]*Op) [][]*Op {
			return [][]*Op{{ops[0][0], ops[2][0]}, {ops[2][1], ops[3][1]}}
		},
		// The same groups, the reading group first.
		"nested reader first": func(ops [][2]*Op) [][]*Op {
			return [][]*Op{{ops[2][1], ops[3][1]}, {ops[0][0], ops[2][0]}}
		},
	}
	for name, groupsOf := range cases {
		t.Run(name, func(t *testing.T) {
			seq, seqOps := chainPlan(t, 4)
			for _, g := range groupsOf(seqOps) {
				if _, err := seq.CollapseOps(g); err != nil {
					t.Fatal(err)
				}
			}
			batch, batchOps := chainPlan(t, 4)
			if err := batch.CollapseGroups(groupsOf(batchOps)); err != nil {
				t.Fatal(err)
			}
			if err := batch.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, want := batch.String(), seq.String(); got != want {
				t.Fatalf("batched plan:\n%s\nsequential plan:\n%s", got, want)
			}
			for _, q := range seq.Queries {
				if got, want := batch.OutputOf(q.ID).ID, seq.OutputOf(q.ID).ID; got != want {
					t.Errorf("query %d outputs s%d, want s%d", q.ID, got, want)
				}
			}
		})
	}
}
