package rules

import (
	"sort"
	"strconv"

	"repro/internal/core"
)

// CSE collapses operators with identical definitions reading identical
// streams into a single operator whose output fans out to all former
// consumers. The paper shows this subsumes Cayuga prefix state merging
// when applied to the translated ; and µ operators (§4.3), and it is how
// the identical smoothing aggregates of Fig. 6 become one α.
type CSE struct{}

// Name implements Rule.
func (CSE) Name() string { return "cse" }

// Apply implements Rule.
func (r CSE) Apply(p *core.Physical) (bool, error) {
	return r.applyNodes(p, nodesOf(p, notSource))
}

// cseKey groups ops with identical definitions reading identical streams.
type cseKey struct {
	def string
	in  inIDs
}

// applyNodes runs the rule over the ops of the given nodes only (the full
// plan for Apply; a dirty-seeded candidate set for the live pass).
func (CSE) applyNodes(p *core.Physical, nodes []*core.Node) (bool, error) {
	// Bucket by inputs first: that key hashes cheaply, and most buckets
	// hold one op, which then never has its definition key hashed.
	byIn := make(map[inIDs][]*core.Op)
	for _, n := range nodes {
		if n.Kind == core.KindSource {
			continue
		}
		for _, o := range n.Ops {
			in := inStreamIDs(o)
			byIn[in] = append(byIn[in], o)
		}
	}
	groups := make(map[cseKey][]*core.Op)
	for in, ops := range byIn {
		if len(ops) < 2 {
			continue
		}
		for _, o := range ops {
			k := cseKey{o.Def.Key(), in}
			groups[k] = append(groups[k], o)
		}
	}
	render := func(k cseKey) string { return k.def + "|" + k.in.render("s") }
	keys := fireable(groups, 2, render)
	if len(keys) == 0 {
		return false, nil
	}
	batch := make([][]*core.Op, len(keys))
	for i, k := range keys {
		ops := groups[k]
		sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
		batch[i] = ops
	}
	return true, p.CollapseGroups(batch)
}

// partners: CSE partners read the same first input stream.
func (CSE) partners(p *core.Physical, o *core.Op, dst []partnerSet) []partnerSet {
	if len(o.In) == 0 {
		return dst
	}
	return append(dst, partnerSet{stream: o.In[0]})
}

// MergeSameInput is the sτ rule for unary operator kinds: operators of
// kind τ reading the same edge are merged into one m-op. For selections
// this is predicate indexing (sσ, [10,16]); for projections the shared π
// of §3.1.
type MergeSameInput struct {
	Kind core.OpKind
}

// Name implements Rule.
func (r MergeSameInput) Name() string { return "s" + r.Kind.String() }

// Apply implements Rule.
func (r MergeSameInput) Apply(p *core.Physical) (bool, error) {
	return r.applyNodes(p, nodesOf(p, kindIs(r.Kind)))
}

func (r MergeSameInput) applyNodes(p *core.Physical, nodes []*core.Node) (bool, error) {
	groups := make(map[int][]*core.Node)
	for _, n := range nodes {
		if n.Kind != r.Kind {
			continue
		}
		for _, o := range n.Ops {
			e := p.StreamEdge(o.In[0]).ID
			groups[e] = append(groups[e], n)
		}
	}
	return mergeNodeGroups(p, groups, edgeGroup)
}

// partners: partners read any stream of the same input edge.
func (r MergeSameInput) partners(p *core.Physical, o *core.Op, dst []partnerSet) []partnerSet {
	if len(o.In) == 0 {
		return dst
	}
	return edgePartners(p, o.In[0], dst)
}

// MergeAgg is sα (shared aggregate evaluation, [22]): aggregation
// operators reading the same edge with the same aggregate function and
// aggregated attribute — but potentially different group-by
// specifications and window lengths — merge into one m-op. As in s⨝,
// operators that differ only in their window share one store bounded by
// the largest window (package mop's aggregate families).
type MergeAgg struct{}

// Name implements Rule.
func (MergeAgg) Name() string { return "sagg" }

// Apply implements Rule.
func (r MergeAgg) Apply(p *core.Physical) (bool, error) {
	return r.applyNodes(p, nodesOf(p, kindIs(core.KindAgg)))
}

// aggKey groups aggregations by input edge, function and attribute.
type aggKey struct {
	edge int
	fn   core.AggFn
	attr int
}

func (k aggKey) String() string {
	return edgeGroup(k.edge) + "|" + k.fn.String() + "|a" + strconv.Itoa(k.attr)
}

func (MergeAgg) applyNodes(p *core.Physical, nodes []*core.Node) (bool, error) {
	groups := make(map[aggKey][]*core.Node)
	for _, n := range nodes {
		if n.Kind != core.KindAgg {
			continue
		}
		for _, o := range n.Ops {
			k := aggKey{p.StreamEdge(o.In[0]).ID, o.Def.Agg, o.Def.AggAttr}
			groups[k] = append(groups[k], n)
		}
	}
	return mergeNodeGroups(p, groups, aggKey.String)
}

// partners: partners read any stream of the same input edge.
func (MergeAgg) partners(p *core.Physical, o *core.Op, dst []partnerSet) []partnerSet {
	if len(o.In) == 0 {
		return dst
	}
	return edgePartners(p, o.In[0], dst)
}

// MergeJoin is s⨝ (shared join evaluation, [12]): join operators reading
// the same two edges with the same join predicate — but potentially
// different window lengths — merge into one m-op with shared state bounded
// by the maximum window.
type MergeJoin struct{}

// Name implements Rule.
func (MergeJoin) Name() string { return "sjoin" }

// Apply implements Rule.
func (r MergeJoin) Apply(p *core.Physical) (bool, error) {
	return r.applyNodes(p, nodesOf(p, kindIs(core.KindJoin)))
}

// joinKey groups joins by input edges and window-free definition.
type joinKey struct {
	in  inIDs
	def string
}

func (MergeJoin) applyNodes(p *core.Physical, nodes []*core.Node) (bool, error) {
	groups := make(map[joinKey][]*core.Node)
	for _, n := range nodes {
		if n.Kind != core.KindJoin {
			continue
		}
		for _, o := range n.Ops {
			k := joinKey{inEdgeIDs(p, o), o.Def.KeyModuloWindow()}
			groups[k] = append(groups[k], n)
		}
	}
	return mergeNodeGroups(p, groups, func(k joinKey) string { return k.in.render("e") + "|" + k.def })
}

// partners: partners read any stream of the same left edge.
func (MergeJoin) partners(p *core.Physical, o *core.Op, dst []partnerSet) []partnerSet {
	if len(o.In) == 0 {
		return dst
	}
	return edgePartners(p, o.In[0], dst)
}

// MergeSeq merges ; (or µ) operators that read the same right stream into
// a single m-op. Inside the m-op (package mop), operators equal up to
// their duration window share instance state; right-side equality
// constants are AN-indexed; equi-join conjuncts are AI-indexed; left-side
// constants are FR-indexed (§4.3: "all the MQO techniques employed by
// Cayuga can be expressed … as m-rules"). Operators whose left streams
// differ keep separate per-operator state inside the m-op, exactly like
// distinct automaton states sharing the engine-wide Cayuga indexes.
type MergeSeq struct {
	Kind core.OpKind // KindSeq or KindMu
}

// Name implements Rule.
func (r MergeSeq) Name() string {
	if r.Kind == core.KindMu {
		return "smu"
	}
	return "sseq"
}

// Apply implements Rule.
func (r MergeSeq) Apply(p *core.Physical) (bool, error) {
	return r.applyNodes(p, nodesOf(p, kindIs(r.Kind)))
}

func (r MergeSeq) applyNodes(p *core.Physical, nodes []*core.Node) (bool, error) {
	groups := make(map[int][]*core.Node)
	for _, n := range nodes {
		if n.Kind != r.Kind {
			continue
		}
		for _, o := range n.Ops {
			e := p.StreamEdge(o.In[1]).ID
			groups[e] = append(groups[e], n)
		}
	}
	return mergeNodeGroups(p, groups, edgeGroup)
}

// partners: partners read any stream of the same right edge.
func (r MergeSeq) partners(p *core.Physical, o *core.Op, dst []partnerSet) []partnerSet {
	if len(o.In) < 2 {
		return dst
	}
	return edgePartners(p, o.In[1], dst)
}
