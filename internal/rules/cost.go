package rules

import (
	"sort"

	"repro/internal/core"
	"repro/internal/expr"
)

// The paper's §7 lists supplementing the rule-based optimizer with a cost
// model as future work. EstimateCost is a deliberately simple structural
// model of that kind: it charges, for a single event arriving on each
// edge, the dispatch and predicate-evaluation work the consuming m-ops
// perform, using the same grouping and indexing structure the lowering
// step (package mop) builds. It knows nothing about data distributions —
// it is a unit-cost model over plan structure — but it orders plans
// correctly for the transformations the m-rules perform: merging operators
// into indexed m-ops and encoding sharable streams into channels both
// reduce the estimate.

// CostEstimate is the structural per-event cost of a plan.
type CostEstimate struct {
	PerEvent float64
	// ByNode maps node ID to its share, for diagnostics.
	ByNode map[int]float64
}

// unit costs
const (
	costDispatch = 1.0 // delivering an event to one m-op port
	costProbe    = 1.0 // one hash-index probe
	costEval     = 1.0 // one sequential predicate/definition evaluation
	costInsert   = 1.0 // storing one tuple into operator state
	costDecode   = 0.1 // membership test per channel-gated operator
)

// EstimateCost computes the model over all edges of the plan.
//
//rumor:allow deadexport reference implementation: kept until the cost model is calibrated (ROADMAP item 9)
func EstimateCost(p *core.Physical) CostEstimate {
	est := CostEstimate{ByNode: make(map[int]float64)}
	// consumers: edge → (node, port-role) derived from op inputs.
	for _, n := range p.Nodes {
		if n.Kind == core.KindSource {
			continue
		}
		cost := nodeCost(p, n)
		est.ByNode[n.ID] = cost
		est.PerEvent += cost
	}
	return est
}

// nodeCost charges node n for one event on each of its input edges.
func nodeCost(p *core.Physical, n *core.Node) float64 {
	type portKey struct {
		edge int
		side int // 0 = unary/left, 1 = right
	}
	// Group the node's operators per (edge, side, def-sharing key), the
	// same partition the lowering uses for shared evaluation.
	type groupInfo struct {
		indexed bool
		ops     int
		channel bool
	}
	groups := map[portKey]map[string]*groupInfo{}
	addOp := func(k portKey, shareKey string, indexed, channel bool) {
		byDef := groups[k]
		if byDef == nil {
			byDef = map[string]*groupInfo{}
			groups[k] = byDef
		}
		g := byDef[shareKey]
		if g == nil {
			g = &groupInfo{indexed: indexed}
			byDef[shareKey] = g
		}
		g.ops++
		g.channel = g.channel || channel
	}
	for _, o := range n.Ops {
		switch o.Def.Kind {
		case core.KindSelect:
			e, _ := p.EdgeOf(o.In[0])
			_, _, _, indexed := expr.IndexableEq(o.Def.Pred)
			addOp(portKey{edge: e.ID}, o.Def.Key(), indexed, e.IsChannel())
		case core.KindProject, core.KindAgg:
			e, _ := p.EdgeOf(o.In[0])
			addOp(portKey{edge: e.ID}, o.Def.Key(), false, e.IsChannel())
		case core.KindJoin, core.KindSeq, core.KindMu:
			le, _ := p.EdgeOf(o.In[0])
			re, _ := p.EdgeOf(o.In[1])
			// Left side: insertion work, shared per state group.
			addOp(portKey{edge: le.ID, side: 0}, o.Def.KeyModuloWindow(), false, le.IsChannel())
			// Right side: probe work; AN-indexable constants and AI
			// equi-joins probe instead of scanning.
			_, _, _, hasAN := expr.RightIndexableEq(o.Def.Pred2)
			_, _, _, hasAI := expr.EqJoinParts(o.Def.Pred2)
			addOp(portKey{edge: re.ID, side: 1}, o.Def.KeyModuloWindow(), hasAN || hasAI, re.IsChannel())
		}
	}
	total := 0.0
	// Deterministic iteration for reproducible breakdowns.
	keys := make([]portKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].edge != keys[j].edge {
			return keys[i].edge < keys[j].edge
		}
		return keys[i].side < keys[j].side
	})
	for _, k := range keys {
		byDef := groups[k]
		total += costDispatch
		probed := false
		for _, g := range byDef {
			switch {
			case g.indexed:
				if !probed {
					total += costProbe // one shared index probe per port
					probed = true
				}
			case k.side == 0 && (n.Kind == core.KindJoin || n.Kind == core.KindSeq || n.Kind == core.KindMu):
				total += costInsert
			default:
				total += costEval
			}
			if g.channel {
				total += costDecode * float64(g.ops)
			}
		}
	}
	return total
}
