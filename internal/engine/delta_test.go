package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/mop"
	"repro/internal/rules"
	"repro/internal/workload"
)

// deltaWorkload returns a catalog, base queries, a pool of churn queries
// and a feed for one of the paper's workloads at test scale.
func deltaWorkload(t *testing.T, wl string) (map[string]core.SourceDecl, []*core.Query, []*core.Query, []workload.Event) {
	t.Helper()
	gen := func(seed int64) (map[string]core.SourceDecl, []*core.Query, []workload.Event) {
		p := workload.DefaultParams()
		p.NumQueries, p.Seed, p.ConstDomain, p.WindowDomain = 40, seed, 50, 200
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
			return p.Workload3Catalog(5), p.Workload3(5), p.Workload3Rounds(5, 400)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs, p.GenStreams(2400)
	}
	catalog, base, events := gen(1)
	_, pool, _ := gen(99)
	return catalog, base, pool, events
}

// deltaOp is one step of a churn script: add pool query add under name,
// or remove the query named name.
type deltaOp struct {
	name string
	add  *core.Query
}

// deltaScript builds n operations in the shape of the live package's
// twin script: every step adds a fresh transient; the transient two steps
// older goes again, and every fifth step removes a base query instead, so
// removals also reach operators the base plan shares and compaction runs.
func deltaScript(base, pool []*core.Query, n int) []deltaOp {
	var ops []deltaOp
	var active []string
	nextBase := 0
	for i := 0; len(ops) < n; i++ {
		name := fmt.Sprintf("tr_%d", i)
		ops = append(ops, deltaOp{name: name, add: pool[i%len(pool)]})
		active = append(active, name)
		switch {
		case i%5 == 4 && nextBase < len(base):
			ops = append(ops, deltaOp{name: base[nextBase].Name})
			nextBase++
		case len(active) > 2:
			ops = append(ops, deltaOp{name: active[0]})
			active = active[1:]
		}
	}
	return ops[:n]
}

// describeRoutes renders the route table edge by edge, by node IDs and
// edge IDs rather than ports and table positions: consumers in delivery
// order with their port use, the batch/scalar split, the sinks, the
// release analysis, and each producer's sink-only and count-only flags.
func describeRoutes(e *Engine) map[int]string {
	out := make(map[int]string, len(e.routes))
	ids := func(cs []portRef) string {
		var b strings.Builder
		for _, c := range cs {
			fmt.Fprintf(&b, "%d:%v ", c.node.id, c.node.uses[c.port])
		}
		return b.String()
	}
	for i := range e.routes {
		r := &e.routes[i]
		var b strings.Builder
		fmt.Fprintf(&b, "consumers [%s] batch [%s] scalar [%s] release=%v/%v row=%v/%v sink=%v",
			ids(r.consumers), ids(r.batchConsumers), ids(r.scalarConsumers),
			r.releasable, r.clearsOwned, r.rowReleasable, r.rowClearsOwned, r.hasSink)
		for _, s := range r.sinks {
			fmt.Fprintf(&b, " sink@%d%v", s.pos, s.queries)
		}
		var prods []string
		for _, pr := range r.producers {
			prods = append(prods, fmt.Sprintf("%d:only=%v,count=%v", pr.node.id, pr.node.sinkOnly[pr.port], pr.node.count[pr.port] != nil))
		}
		slices.Sort(prods)
		fmt.Fprintf(&b, " producers %v", prods)
		out[r.edge.ID] = b.String()
	}
	return out
}

// TestApplyDeltaMatchesFreshEngine holds live delta application to a
// fresh lowering: along the churn script on W1, W2, W2-µ and W3, channels
// off and on, with events pushed between the operations, after every
// delta the patched route table equals that of an engine built over the
// same plan, edge by edge; the table holds one entry per live edge; and
// every ;/µ m-op, spliced or not, describes like a fresh lowering of its
// node that adopts its stored state.
func TestApplyDeltaMatchesFreshEngine(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w2mu", "w3"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				catalog, base, pool, events := deltaWorkload(t, wl)
				opt := rules.Options{Channels: channels}
				e := optimizedEngine(t, catalog, base, channels)
				p := e.plan
				ops := deltaScript(base, pool, 128)
				step := len(events) / len(ops)
				for i, op := range ops {
					for _, ev := range events[i*step : (i+1)*step] {
						if err := e.Push(ev.Source, ev.Tuple); err != nil {
							t.Fatal(err)
						}
					}
					var d *core.Delta
					var err error
					if op.add != nil {
						d, err = live.AddQuery(p, opt, core.NewQuery(op.name, op.add.Root))
					} else {
						d, err = live.RemoveQuery(p, queryNamed(t, p, op.name))
					}
					if err != nil {
						t.Fatalf("op %d (%s): %v", i, op.name, err)
					}
					if err := e.ApplyDelta(d); err != nil {
						t.Fatalf("op %d (%s): %v", i, op.name, err)
					}
					checkFresh(t, fmt.Sprintf("op %d (%s, add=%v)", i, op.name, op.add != nil), e)
				}
			})
		}
	}
}

// checkFresh compares e with an engine freshly built over its plan.
func checkFresh(t *testing.T, step string, e *Engine) {
	t.Helper()
	p := e.plan
	if len(e.routes) > len(p.Edges)+2 {
		t.Fatalf("%s: route table has %d entries for %d live edges", step, len(e.routes), len(p.Edges))
	}
	fresh, err := New(p)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	got, want := describeRoutes(e), describeRoutes(fresh)
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			t.Fatalf("%s: edge %d route\n got: %s\nwant: %s", step, id, g, w)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: route table covers %d edges, a fresh engine %d", step, len(got), len(want))
	}
	if len(e.nodes) != len(fresh.nodes) {
		t.Fatalf("%s: %d runtime nodes, a fresh engine has %d", step, len(e.nodes), len(fresh.nodes))
	}
	for i, rn := range e.nodes {
		if fn := fresh.nodes[i]; rn.id != fn.id || (rn.bm != nil) != (fn.bm != nil) {
			t.Fatalf("%s: runtime node %d (block path %v), a fresh engine has node %d (%v)", step, rn.id, rn.bm != nil, fn.id, fn.bm != nil)
		}
		n := p.Nodes[rn.id]
		if n.Kind != core.KindSeq && n.Kind != core.KindMu {
			continue
		}
		low, err := mop.Lower(p, n, e.pool)
		if err != nil {
			t.Fatalf("%s: node %d: %v", step, n.ID, err)
		}
		if err := mop.NewStateRegistry([]mop.MOp{rn.m}).Adopt(low); err != nil {
			t.Fatalf("%s: node %d: a fresh lowering cannot adopt the running state: %v", step, n.ID, err)
		}
		if g, w := describeSeq(rn.m, rn.in, rn.out), describeSeq(low.MOp, low.InEdges, low.OutEdges); g != w {
			t.Fatalf("%s: node %d: the running m-op differs from a fresh lowering\n got: %s\nwant: %s", step, n.ID, g, w)
		}
	}
}

func queryNamed(t *testing.T, p *core.Physical, name string) int {
	t.Helper()
	for _, q := range p.Queries {
		if q.Name == name {
			return q.ID
		}
	}
	t.Fatalf("query %q not in plan", name)
	return -1
}

// describeSeq renders a ;/µ m-op (mop.SeqMOp, read by reflection) for
// comparison with another lowering of the same node: each state group
// with its operators, windows, wiring, predicates, membership index,
// dispatch and stored instances, and the m-op's block path and port uses.
// Ports are named by the edges in and out give them, and operators and
// groups are listed in a canonical order, so two m-ops that behave alike
// describe alike whatever their port numbering and registration order.
func describeSeq(m mop.MOp, in, out []*core.Edge) string {
	v := reflect.ValueOf(m).Elem()
	edge := func(edges []*core.Edge, port reflect.Value) int {
		if i := int(port.Int()); i < len(edges) && edges[i] != nil {
			return edges[i].ID
		}
		return -1
	}
	ints := func(s reflect.Value) []int {
		out := make([]int, s.Len())
		for i := range out {
			out[i] = int(s.Index(i).Int())
		}
		return out
	}
	// A group is named by its sorted operator IDs.
	name := func(g reflect.Value) string {
		return fmt.Sprint(slices.Sorted(slices.Values(ints(g.Elem().FieldByName("opIDs")))))
	}
	var lines []string
	for it := v.FieldByName("byKey").MapRange(); it.Next(); {
		g, k := it.Value().Elem(), it.Key()
		ids := ints(g.FieldByName("opIDs"))
		var b strings.Builder
		fmt.Fprintf(&b, "group %s l=%d r=%d", name(it.Value()), edge(in, k.FieldByName("lport")), edge(in, k.FieldByName("rport")))
		for _, f := range []string{"maxWindow", "unbounded", "hasEq", "lAttr", "rAttr", "hashStable", "pred", "filter", "leftPred", "left", "right", "leftMask"} {
			fmt.Fprintf(&b, " %s=%v", f, g.FieldByName(f))
		}
		fmt.Fprintf(&b, " plain=%v hash=%v", g.FieldByName("prefixEmitter").FieldByName("plain"), !g.FieldByName("hash").IsNil())
		var ops []string
		wops := g.FieldByName("ops")
		for i := range wops.Len() {
			o, id := wops.Index(i), -1
			if i < len(ids) {
				id = ids[i]
			}
			tg := o.FieldByName("tg")
			ops = append(ops, fmt.Sprintf("op %d w=%d l=%d r=%d out=%d@%d", id, o.FieldByName("window").Int(),
				o.FieldByName("leftPos").Int(), o.FieldByName("rightPos").Int(), edge(out, tg.FieldByName("port")), tg.FieldByName("pos").Int()))
		}
		slices.Sort(ops)
		fmt.Fprintf(&b, "\n  %s", strings.Join(ops, "\n  "))
		posOps := g.FieldByName("posOps")
		for pos := range posOps.Len() {
			var at []int
			for _, i := range ints(posOps.Index(pos)) {
				at = append(at, ids[i])
			}
			slices.Sort(at)
			fmt.Fprintf(&b, "\n  pos %d: %v", pos, at)
		}
		insts := g.FieldByName("insts")
		for i := range insts.Len() {
			inst := insts.Index(i).Elem()
			if !inst.FieldByName("dead").Bool() {
				st, sv := inst.FieldByName("start").Elem(), inst.FieldByName("state").Elem()
				fmt.Fprintf(&b, "\n  inst @%d %v state %v member %v", st.FieldByName("TS").Int(), st.FieldByName("Vals"),
					sv.FieldByName("Vals"), inst.FieldByName("member"))
			}
		}
		lines = append(lines, b.String())
	}
	// Dispatch: per input edge and side, the groups indexed under each
	// constant and the unindexed rest.
	for _, side := range []string{"lefts", "rights"} {
		ds := v.FieldByName(side)
		for port := range ds.Len() {
			d := ds.Index(port)
			if d.IsNil() {
				continue
			}
			var reg []string
			idx := d.Elem().FieldByName("idx")
			for i := range idx.Len() {
				ci := idx.Index(i).FieldByName("byConst")
				attr := idx.Index(i).FieldByName("attr").Int()
				for c := range ci.FieldByName("dense").Len() {
					for _, g := range listOf(ci.FieldByName("dense").Index(c)) {
						reg = append(reg, fmt.Sprintf("%d=%d:%s", attr, c, name(g)))
					}
				}
				for it := ci.FieldByName("m").MapRange(); it.Next(); {
					for _, g := range listOf(it.Value()) {
						reg = append(reg, fmt.Sprintf("%d=%d:%s", attr, it.Key().Int(), name(g)))
					}
				}
			}
			for _, g := range listOf(d.Elem().FieldByName("rest")) {
				reg = append(reg, "rest:"+name(g))
			}
			slices.Sort(reg)
			lines = append(lines, fmt.Sprintf("%s %d: %v", side, edge(in, reflect.ValueOf(port)), reg))
		}
	}
	slices.Sort(lines)
	return fmt.Sprintf("vec=%v\n%s", v.FieldByName("vec"), strings.Join(lines, "\n"))
}

func listOf(s reflect.Value) []reflect.Value {
	out := make([]reflect.Value, s.Len())
	for i := range out {
		out[i] = s.Index(i)
	}
	return out
}
