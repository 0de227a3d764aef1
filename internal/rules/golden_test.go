package rules_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/workload"
)

// The golden files pin the plans and live deltas the rule engine produces
// on the benchmark's query sets, byte for byte. A rewrite of the rule pass
// or of the plan primitives that changes the order of its mutations must
// still reproduce them; regenerate only for an intended plan change:
//
//	go test ./internal/rules -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite internal/rules/testdata golden files")

// goldenPlanSets are the batch-optimized query sets: Workload 1 and
// Workload 2 at 1000 queries, and a relational CQL script of the rel_cql
// shape (filter+project, aggregate, join).
func goldenPlanSets(t testing.TB) map[string]func() (map[string]core.SourceDecl, []*core.Query) {
	auto := func(gen func(workload.Params) []*core.Query) func() (map[string]core.SourceDecl, []*core.Query) {
		return func() (map[string]core.SourceDecl, []*core.Query) {
			prm := workload.DefaultParams()
			return prm.Catalog(), gen(prm)
		}
	}
	toRUMOR := func(qs []*core.Query, err error) []*core.Query {
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	return map[string]func() (map[string]core.SourceDecl, []*core.Query){
		"w1": auto(func(p workload.Params) []*core.Query { return toRUMOR(workload.ToRUMOR(p.Workload1())) }),
		"w2": auto(func(p workload.Params) []*core.Query { return toRUMOR(workload.ToRUMOR(p.Workload2Seq())) }),
		"rel_cql": func() (map[string]core.SourceDecl, []*core.Query) {
			s, err := cql.Parse(relScript(120, 3))
			if err != nil {
				t.Fatal(err)
			}
			return s.Catalog, s.Queries
		},
	}
}

// relScript renders n queries of each relational shape over S and T with
// seeded constants and windows.
func relScript(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	attrs := "a0, a1, a2, a3, a4, a5, a6, a7, a8, a9"
	fmt.Fprintf(&b, "CREATE STREAM S(%s);\nCREATE STREAM T(%s);\n", attrs, attrs)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY flt_%d := PROJECT(a0, a1 FROM FILTER(a0 = %d AND a1 > %d, S));\n",
			i, rng.Intn(40), rng.Intn(1000))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY agg_%d := AGG(avg(a1) OVER %d BY a0 FROM S);\n", i, 1+rng.Intn(60))
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY join_%d := JOIN(S, T ON LEFT.a0 = EVENT.a0 WINDOW %d);\n", i, 1+rng.Intn(60))
	}
	return b.String()
}

func optimizedPlan(t testing.TB, cat map[string]core.SourceDecl, qs []*core.Query, channels bool) *core.Physical {
	p := core.NewPhysical(cat)
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{Channels: channels}); err != nil {
		t.Fatal(err)
	}
	return p
}

// planText is Physical.String() followed by every query's output stream,
// so the golden also pins the query → output mapping CSE maintains.
func planText(p *core.Physical) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, q := range p.Queries {
		fmt.Fprintf(&b, "q%d -> s%d\n", q.ID, p.OutputOf(q.ID).ID)
	}
	return b.String()
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("%s differs from the golden file:\n got: %s\nwant: %s", name, got, want)
	}
}

func sortedIDs(m map[int]bool) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TestGoldenPlans pins a SHA-256 of planText after the batch
// optimizer, for every golden query set with channels off and on.
func TestGoldenPlans(t *testing.T) {
	sets := goldenPlanSets(t)
	var b strings.Builder
	for _, name := range []string{"w1", "w2", "rel_cql"} {
		for _, channels := range []bool{false, true} {
			cat, qs := sets[name]()
			sum := sha256.Sum256([]byte(planText(optimizedPlan(t, cat, qs, channels))))
			fmt.Fprintf(&b, "%s channels=%v %s\n", name, channels, hex.EncodeToString(sum[:]))
		}
	}
	checkGolden(t, "plans.sha256", b.String())
}

// TestGoldenLiveDeltas pins the Delta.String() sequence of a 64-operation
// add/remove script on Workload 1 at 250 base queries with channels on:
// adds come from a second Workload 1 draw, removals alternate between the
// live-added and the base queries.
func TestGoldenLiveDeltas(t *testing.T) {
	prm := workload.DefaultParams()
	prm.NumQueries = 250
	base, err := workload.ToRUMOR(prm.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	opt := rules.Options{Channels: true}
	plan := optimizedPlan(t, prm.Catalog(), base, true)

	pool := prm
	pool.Seed, pool.NumQueries = 2, 32
	adds, err := workload.ToRUMOR(pool.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range adds {
		q.Name = fmt.Sprintf("live_%d", i)
	}
	rng := rand.New(rand.NewSource(5))
	var added []int
	baseLeft := make([]int, len(base))
	for i, q := range base {
		baseLeft[i] = q.ID
	}
	pick := func(ids *[]int) int {
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		*ids = append((*ids)[:i], (*ids)[i+1:]...)
		return id
	}
	var b strings.Builder
	for op := 0; op < 64; op++ {
		var d *core.Delta
		switch {
		case op%2 == 0:
			q := adds[op/2]
			if d, err = live.AddQuery(plan, opt, q); err != nil {
				t.Fatal(err)
			}
			added = append(added, q.ID)
			fmt.Fprintf(&b, "add %s: ", q.Name)
		case op%4 == 1 && len(added) > 0:
			id := pick(&added)
			if d, err = live.RemoveQuery(plan, id); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "remove q%d: ", id)
		default:
			id := pick(&baseLeft)
			if d, err = live.RemoveQuery(plan, id); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "remove q%d: ", id)
		}
		b.WriteString(d.String())
		fmt.Fprintf(&b, " new:%v streams:%v\n", d.NewQueries, sortedIDs(d.NewStreams))
		for _, r := range d.Remaps {
			fmt.Fprintf(&b, "  remap e%d %v %v\n", r.EdgeID, r.Table, r.Ops)
		}
	}
	sum := sha256.Sum256([]byte(planText(plan)))
	fmt.Fprintf(&b, "plan %s\n", hex.EncodeToString(sum[:]))
	checkGolden(t, "live_deltas.txt", b.String())
}
