package live

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/wire"
	"repro/internal/workload"
)

// twinWorkload returns a catalog, the base queries and a pool of churn
// queries for one of the paper's workloads at test scale.
func twinWorkload(t *testing.T, wl string) (map[string]core.SourceDecl, []*core.Query, []*core.Query) {
	t.Helper()
	gen := func(seed int64) (map[string]core.SourceDecl, []*core.Query) {
		p := workload.DefaultParams()
		p.NumQueries = 40
		p.Seed = seed
		p.ConstDomain = 50
		p.WindowDomain = 200
		var qs []*core.Query
		var err error
		switch wl {
		case "w1":
			qs, err = workload.ToRUMOR(p.Workload1())
		case "w2":
			qs, err = workload.ToRUMOR(p.Workload2Seq())
		case "w2mu":
			qs, err = workload.ToRUMOR(p.Workload2Mu())
		case "w3":
			return p.Workload3Catalog(5), p.Workload3(5)
		default:
			t.Fatalf("unknown workload %s", wl)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs
	}
	catalog, base := gen(1)
	_, pool := gen(99)
	return catalog, base, pool
}

// twinOp is one step of a churn script: add pool query add (named name),
// or remove the query named name.
type twinOp struct {
	name string
	add  *core.Query
}

// twinScript builds n add/remove operations: every step adds a fresh
// transient; the transient two steps older goes again, and every fifth
// step removes a base query instead, so removals also reach operators the
// base plan shares and compaction runs.
func twinScript(base, pool []*core.Query, n int) []twinOp {
	var ops []twinOp
	var active []string
	nextBase := 0
	for i := 0; len(ops) < n; i++ {
		name := fmt.Sprintf("tr_%d", i)
		ops = append(ops, twinOp{name: name, add: pool[i%len(pool)]})
		active = append(active, name)
		switch {
		case i%5 == 4 && nextBase < len(base):
			ops = append(ops, twinOp{name: base[nextBase].Name})
			nextBase++
		case len(active) > 2:
			ops = append(ops, twinOp{name: active[0]})
			active = active[1:]
		}
	}
	return ops[:n]
}

func planBytes(t *testing.T, p *core.Physical) []byte {
	t.Helper()
	b, err := wire.EncodePlanBytes(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func queryID(t *testing.T, p *core.Physical, name string) int {
	t.Helper()
	for _, q := range p.Queries {
		if q.Name == name {
			return q.ID
		}
	}
	t.Fatalf("query %q not in plan", name)
	return -1
}

// TestSnapshotTwinFollowsChurn holds live maintenance to a function of
// the plan's encoded snapshot: a plan and its twin rebuilt from that
// snapshot, given the same 128 adds and removes, encode to the same bytes
// after every one. A cluster worker relies on this when it replays churn
// on its own rebuilt plan and checks the coordinator's fingerprint.
func TestSnapshotTwinFollowsChurn(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w2mu", "w3"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				catalog, base, pool := twinWorkload(t, wl)
				opt := rules.Options{Channels: channels}
				orig := core.NewPhysical(catalog)
				for _, q := range base {
					if err := orig.AddQuery(core.NewQuery(q.Name, q.Root)); err != nil {
						t.Fatal(err)
					}
				}
				if err := rules.Optimize(orig, opt); err != nil {
					t.Fatal(err)
				}
				snap, err := wire.DecodePlanBytes(planBytes(t, orig))
				if err != nil {
					t.Fatal(err)
				}
				twinCatalog, err := core.CatalogDecls(snap.Sources)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := core.RebuildPhysical(twinCatalog, snap)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(planBytes(t, orig), planBytes(t, twin)) {
					t.Fatal("rebuilt twin encodes differently before any churn")
				}
				for i, op := range twinScript(base, pool, 128) {
					for _, p := range []*core.Physical{orig, twin} {
						m := NewMaintainer(p, opt)
						if op.add != nil {
							_, err = m.AddQuery(core.NewQuery(op.name, op.add.Root))
						} else {
							_, err = m.RemoveQuery(queryID(t, p, op.name))
						}
						if err != nil {
							t.Fatalf("op %d (%s): %v", i, op.name, err)
						}
					}
					if !bytes.Equal(planBytes(t, orig), planBytes(t, twin)) {
						t.Fatalf("op %d (%s, add=%v): plan and twin encode differently", i, op.name, op.add != nil)
					}
				}
			})
		}
	}
}
