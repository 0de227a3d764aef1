package live

import (
	"bytes"
	"fmt"
	"slices"
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

// rebuildTwin rebuilds a plan from p's encoded snapshot.
func rebuildTwin(t *testing.T, p *core.Physical) *core.Physical {
	t.Helper()
	snap, err := wire.DecodePlanBytes(planBytes(t, p))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.RebuildPhysical(snap)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// TestSnapshotTwinFollowsChurn holds live maintenance to a function of
// the plan's encoded snapshot: a plan and its twin rebuilt from that
// snapshot, given the same 128 adds and removes, encode to the same bytes
// after every one. A cluster worker relies on this when it replays churn
// on its own rebuilt plan and checks the coordinator's fingerprint. A
// second twin, rebuilt mid-script after op 15 (when the plan holds
// tombstones), must encode like the plan from then on too.
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
				twin := rebuildTwin(t, orig)
				if !bytes.Equal(planBytes(t, orig), planBytes(t, twin)) {
					t.Fatal("rebuilt twin encodes differently before any churn")
				}
				var late *core.Physical
				for i, op := range twinScript(base, pool, 128) {
					for _, p := range []*core.Physical{orig, twin, late} {
						if p == nil {
							continue
						}
						var err error
						if op.add != nil {
							_, err = AddQuery(p, opt, core.NewQuery(op.name, op.add.Root))
						} else {
							_, err = RemoveQuery(p, queryID(t, p, op.name))
						}
						if err != nil {
							t.Fatalf("op %d (%s): %v", i, op.name, err)
						}
					}
					want := planBytes(t, orig)
					if !bytes.Equal(want, planBytes(t, twin)) {
						t.Fatalf("op %d (%s, add=%v): plan and twin encode differently", i, op.name, op.add != nil)
					}
					if late != nil && !bytes.Equal(want, planBytes(t, late)) {
						t.Fatalf("op %d (%s, add=%v): plan and the twin rebuilt after op 15 encode differently", i, op.name, op.add != nil)
					}
					if i == 15 {
						late = rebuildTwin(t, orig)
					}
				}
			})
		}
	}
}

// treelessBytes encodes p's snapshot with its queries' logical trees and
// its tombstones' producers cleared: everything Fingerprint walks. A
// tombstone's producer is the op whose removal killed it, which a plan
// rebuilt from a snapshot does not keep.
func treelessBytes(t *testing.T, p *core.Physical) string {
	t.Helper()
	snap := p.Snapshot()
	for i := range snap.Queries {
		snap.Queries[i].Root = nil
	}
	for i := range snap.Streams {
		if snap.Streams[i].Dead {
			snap.Streams[i].Producer = -1
		}
	}
	b, err := wire.EncodePlanBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fingerprintMutations change one thing each in a plan snapshot: every one
// must change the fingerprint of the plan rebuilt from it. A mutation
// that finds nothing to change reports false.
var fingerprintMutations = []struct {
	name   string
	mutate func(s *core.PlanSnapshot) bool
}{
	{"swap two slots of a channel edge", func(s *core.PlanSnapshot) bool {
		for _, e := range s.Edges {
			if len(e.Streams) >= 2 {
				e.Streams[0], e.Streams[1] = e.Streams[1], e.Streams[0]
				return true
			}
		}
		return false
	}},
	{"flip a tombstone", func(s *core.PlanSnapshot) bool {
		i := slices.IndexFunc(s.Streams, func(ss core.StreamSnap) bool { return ss.Dead })
		if i < 0 {
			i = len(s.Streams) - 1
		}
		s.Streams[i].Dead = !s.Streams[i].Dead
		return true
	}},
	{"change one op's window", func(s *core.PlanSnapshot) bool {
		for i := range s.Ops {
			if d := s.Ops[i].Def; d.Kind != core.KindSource {
				s.Ops[i].Def = &core.Def{Kind: d.Kind, Pred: d.Pred, Map: d.Map, Agg: d.Agg, AggAttr: d.AggAttr,
					GroupBy: d.GroupBy, Pred2: d.Pred2, Filter2: d.Filter2, Window: d.Window + 1}
				return true
			}
		}
		return false
	}},
	{"change a stream's share class", func(s *core.PlanSnapshot) bool {
		s.Streams[0].ShareClass += "'"
		return true
	}},
	{"bump one ID counter", func(s *core.PlanSnapshot) bool {
		s.NextOp++
		return true
	}},
	{"move a query's output", func(s *core.PlanSnapshot) bool {
		q := s.Queries[0].ID
		for _, ss := range s.Streams {
			if !ss.Dead && ss.ID != s.OutStream[q] {
				s.OutStream[q] = ss.ID
				return true
			}
		}
		return false
	}},
	// Only in the source table: the streams keep the old name, so that only
	// the walk of the table can tell.
	{"rename a source", func(s *core.PlanSnapshot) bool {
		s.Sources[0].Name += "_renamed"
		return true
	}},
}

// TestFingerprintSensitivity holds Fingerprint to what it identifies.
// Over the plans TestSnapshotTwinFollowsChurn's script yields, and the
// twins rebuilt from their snapshots, two fingerprints are equal exactly
// when the plans' snapshots encode to equal bytes with what Fingerprint
// leaves out cleared (treelessBytes); each twin has its plan's
// fingerprint. And each mutation of the last plan's snapshot changes the
// fingerprint of the plan rebuilt from it; a mutation that finds nothing
// to change in one plan must change another.
func TestFingerprintSensitivity(t *testing.T) {
	applied := make([]int, len(fingerprintMutations))
	for _, wl := range []string{"w1", "w2", "w2mu"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				catalog, base, pool := twinWorkload(t, wl)
				opt := rules.Options{Channels: channels}
				p := core.NewPhysical(catalog)
				for _, q := range base {
					if err := p.AddQuery(core.NewQuery(q.Name, q.Root)); err != nil {
						t.Fatal(err)
					}
				}
				if err := rules.Optimize(p, opt); err != nil {
					t.Fatal(err)
				}
				rebuild := func(planBytes []byte, mutate func(*core.PlanSnapshot) bool) (*core.Physical, bool) {
					t.Helper()
					snap, err := wire.DecodePlanBytes(planBytes)
					if err != nil {
						t.Fatal(err)
					}
					if mutate != nil && !mutate(snap) {
						return nil, false
					}
					twin, err := core.RebuildPhysical(snap)
					if err != nil {
						t.Fatal(err)
					}
					return twin, true
				}
				byFP := map[uint64]string{}
				byBytes := map[string]uint64{}
				check := func(step int, q *core.Physical) {
					t.Helper()
					fp, b := q.Fingerprint(), treelessBytes(t, q)
					if prev, ok := byFP[fp]; ok && prev != b {
						t.Fatalf("step %d: fingerprint %016x names two plans", step, fp)
					}
					if prev, ok := byBytes[b]; ok && prev != fp {
						t.Fatalf("step %d: one plan has fingerprints %016x and %016x", step, prev, fp)
					}
					byFP[fp], byBytes[b] = b, fp
				}
				script := twinScript(base, pool, 128)
				for i := 0; ; i++ {
					twin, _ := rebuild(planBytes(t, p), nil)
					check(i, p)
					check(i, twin)
					if i == len(script) {
						break
					}
					var err error
					if op := script[i]; op.add != nil {
						_, err = AddQuery(p, opt, core.NewQuery(op.name, op.add.Root))
					} else {
						_, err = RemoveQuery(p, queryID(t, p, op.name))
					}
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if len(byFP) != len(script)+1 {
					t.Errorf("%d fingerprints over %d steps and their twins, want one per step", len(byFP), len(script)+1)
				}

				last := planBytes(t, p)
				want := p.Fingerprint()
				for i, m := range fingerprintMutations {
					if twin, ok := rebuild(last, m.mutate); ok {
						applied[i]++
						if twin.Fingerprint() == want {
							t.Errorf("%s: fingerprint unchanged", m.name)
						}
					}
				}
			})
		}
	}
	for i, m := range fingerprintMutations {
		if applied[i] == 0 {
			t.Errorf("%s: no plan had anything to mutate", m.name)
		}
	}
}

// TestEdgeOfMatchesScan holds the plan's stream index to a scan of its
// edges after every operation of the churn script: EdgeOf of every stream
// the script has put on an edge is where a scan finds it, and (nil, -1)
// once no edge carries it.
func TestEdgeOfMatchesScan(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w2mu", "w3"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				catalog, base, pool := twinWorkload(t, wl)
				opt := rules.Options{Channels: channels}
				p := core.NewPhysical(catalog)
				for _, q := range base {
					if err := p.AddQuery(core.NewQuery(q.Name, q.Root)); err != nil {
						t.Fatal(err)
					}
				}
				if err := rules.Optimize(p, opt); err != nil {
					t.Fatal(err)
				}
				seen := map[*core.StreamRef]bool{}
				check := func(step string) {
					type at struct {
						e   *core.Edge
						pos int
					}
					scan := map[*core.StreamRef]at{}
					for _, e := range p.Edges {
						for i, s := range e.Streams {
							scan[s] = at{e, i}
							seen[s] = true
						}
					}
					for s := range seen {
						want, ok := scan[s]
						if !ok {
							want = at{nil, -1}
						}
						if e, pos := p.EdgeOf(s); e != want.e || pos != want.pos {
							t.Fatalf("%s: EdgeOf(stream %d) = (%v, %d), a scan finds (%v, %d)", step, s.ID, e, pos, want.e, want.pos)
						}
					}
				}
				check("optimized")
				for i, op := range twinScript(base, pool, 128) {
					var err error
					if op.add != nil {
						_, err = AddQuery(p, opt, core.NewQuery(op.name, op.add.Root))
					} else {
						_, err = RemoveQuery(p, queryID(t, p, op.name))
					}
					if err != nil {
						t.Fatalf("op %d (%s): %v", i, op.name, err)
					}
					check(fmt.Sprintf("op %d (%s)", i, op.name))
				}
			})
		}
	}
}
