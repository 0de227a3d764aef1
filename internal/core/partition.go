package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// This file implements the partitionability analysis behind the sharded
// runtime (package shard): given a physical plan, decide how each source
// stream's tuples can be routed across N independent engine replicas so
// that the union of the replicas' results equals the single-engine results.
//
// Every source is assigned one of four routing modes:
//
//   - PartitionHash: tuples go to shard hash(vals[Attr]) % N. Chosen when
//     the stateful operators reached by the source pair tuples on an
//     equi-attribute (the AI-index equi-join of Workloads 2/3), so tuples
//     that must meet co-locate.
//   - PartitionRoundRobin: tuples go to any single shard. Safe when the
//     source's tuples only create state that the other side's (broadcast)
//     tuples probe, or flow through stateless operators.
//   - PartitionMulticast: content-based routing for the probing side of
//     FR/AN-shaped sequence workloads (Workload 1). When every consumer
//     of the source is the right side of a sequence whose instances come
//     from a constant selection σ(src.a = c1), the instances of the
//     operator with right constant c3 live exactly on shard hash(c1), so
//     a tuple with vals[Attr] = c3 needs only the shards of its partner
//     constants — and a tuple no operator's constant matches reaches no
//     shard at all.
//   - PartitionBroadcast: tuples go to every shard. The safe fallback for
//     the probing side of unkeyed binary operators and for inputs of
//     unkeyed aggregates.
//
// A query whose output stream is produced identically on every shard
// (every contributing source broadcast) is a replicated sink: the merge
// layer counts it on shard 0 only.

// PartitionMode is a per-source shard routing mode.
type PartitionMode uint8

// Routing modes, from weakest to strongest distribution.
const (
	PartitionBroadcast PartitionMode = iota
	PartitionRoundRobin
	PartitionMulticast
	PartitionHash
)

// String returns the mode name.
func (m PartitionMode) String() string {
	switch m {
	case PartitionBroadcast:
		return "broadcast"
	case PartitionRoundRobin:
		return "round-robin"
	case PartitionMulticast:
		return "multicast"
	case PartitionHash:
		return "hash"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// SourceRoute is the routing decision for one source stream.
type SourceRoute struct {
	Mode PartitionMode
	Attr int // hashed (Hash) or table-probed (Multicast) attribute

	// Multicast routing data (Mode == PartitionMulticast): a tuple is
	// routed to the shards owning hash(p) for every partner constant p in
	// Table[vals[Attr]] and in Always; the partner constants are hashed
	// exactly like the partner source's Hash attribute. A value absent
	// from Table (with empty Always) reaches no shard.
	Table  map[int64][]int64
	Always []int64
}

// PartitionPlan is the result of the analysis: per-source routes plus the
// set of queries whose results are replicated on every shard.
type PartitionPlan struct {
	Routes map[string]SourceRoute
	// ReplicatedSinks maps query IDs whose output stream is identical on
	// every shard; the merge layer must count them on one shard only.
	ReplicatedSinks map[int]bool
	// Parallel reports whether at least one source is actually
	// partitioned; when false, sharding degenerates to replication.
	Parallel bool
	// Table is the versioned key-placement overlay (see rebalance.go): it
	// relocates or splits individual hash keys away from their default
	// ShardOfKey placement. nil means pure hashing (version 0).
	Table *RoutingTable
}

// String renders the partition plan for inspection.
func (pp *PartitionPlan) String() string {
	var b strings.Builder
	for _, n := range sortedKeys(pp.Routes) {
		r := pp.Routes[n]
		switch r.Mode {
		case PartitionHash:
			fmt.Fprintf(&b, "%s: hash(a%d)\n", n, r.Attr)
		case PartitionMulticast:
			fmt.Fprintf(&b, "%s: multicast(a%d, %d keys, %d always)\n", n, r.Attr, len(r.Table), len(r.Always))
		default:
			fmt.Fprintf(&b, "%s: %s\n", n, r.Mode)
		}
	}
	if len(pp.ReplicatedSinks) > 0 {
		fmt.Fprintf(&b, "replicated sinks: %v\n", sortedKeys(pp.ReplicatedSinks))
	}
	return b.String()
}

// partKind is the distribution status of a stream under a candidate route
// assignment.
type partKind uint8

const (
	pRepl  partKind = iota // every shard sees the full stream
	pAny                   // each tuple on exactly one shard, unkeyed
	pAttr                  // each tuple on the shard of hash(vals[attr])
	pMulti                 // content-routed probe stream (multicast source)
)

type partStatus struct {
	kind partKind
	attr int
}

// analysis carries the per-plan state of one ExtendPartition run.
type analysis struct {
	p       *Physical
	lineage map[int][]string // stream ID → sorted source names feeding it
	// multicastTried guards against re-proposing multicast for a source
	// after a later conflict demoted it.
	multicastTried map[string]bool
}

// AnalyzePartition computes a safe shard routing for the plan's sources:
// ExtendPartition with no route pinned. The result is deterministic for a
// given plan.
func AnalyzePartition(p *Physical) *PartitionPlan {
	pp, _ := ExtendPartition(p, &PartitionPlan{}) // nothing pinned: it cannot fail
	return pp
}

// ExtendPartition incrementally updates a partition plan after a live
// query delta. Sources that were routed before keep their mode and
// attribute — the operator state already distributed across the shards is
// only correct under the routes it was built with — while their multicast
// tables and Always lists are rebuilt from the current consumers (new
// partner constants appear, constants of removed operators are pruned).
// Only sources new to the plan receive fresh routes. ReplicatedSinks is
// recomputed for the current query set.
//
// When the grown plan cannot be served without re-routing an existing
// source (e.g. a new query needs a broadcast of a currently partitioned
// stream), ExtendPartition returns an error and the caller must reject
// the live operation; serving such a query requires an offline restart.
// With no route pinned it never fails: a plan that cannot be partitioned
// at all broadcasts every source.
func ExtendPartition(p *Physical, prev *PartitionPlan) (*PartitionPlan, error) {
	a := &analysis{p: p, lineage: make(map[int][]string), multicastTried: make(map[string]bool)}
	modes := a.proposeRoutes()
	pinned := make(map[string]bool, len(prev.Routes))
	for name, r := range prev.Routes {
		if p.SourceStream(name) == nil {
			continue
		}
		pinned[name] = true
		a.multicastTried[name] = true // verify must not re-route pinned sources
		if r.Mode != PartitionMulticast {
			modes[name] = SourceRoute{Mode: r.Mode, Attr: r.Attr}
			continue
		}
		if len(p.Consumers(p.SourceStream(name))) == 0 {
			if len(p.OutputQueries(p.SourceStream(name))) > 0 {
				// A query reads the multicast source directly: its tuples
				// must reach a shard, which the drop-at-router route cannot
				// provide without re-routing the pinned source.
				return nil, fmt.Errorf("core: live query reads multicast source %q directly; re-optimize offline", name)
			}
			// Every consumer was removed: keep the multicast mode with an
			// empty table — future tuples are dropped at the router.
			modes[name] = SourceRoute{Mode: PartitionMulticast, Attr: r.Attr, Table: map[int64][]int64{}}
			continue
		}
		srcL, lAttr, rAttr, table, always, ok := a.multicastTable(p.SourceStream(name))
		if !ok {
			return nil, fmt.Errorf("core: source %q no longer qualifies for its multicast route; re-optimize offline", name)
		}
		if lm, exists := prev.Routes[srcL]; !exists || lm.Mode != PartitionHash || lm.Attr != lAttr {
			return nil, fmt.Errorf("core: multicast source %q now pairs against %q(a%d), conflicting with its pinned route", name, srcL, lAttr)
		}
		if rAttr != r.Attr && len(table) > 0 {
			return nil, fmt.Errorf("core: multicast source %q changed its probed attribute (a%d -> a%d)", name, r.Attr, rAttr)
		}
		modes[name] = SourceRoute{Mode: PartitionMulticast, Attr: r.Attr, Table: table, Always: always}
	}
	// Verify; on a conflict, first try upgrading the offending probe
	// source to multicast routing, otherwise demote the offending input's
	// sources to broadcast, and retry. Multicast upgrades happen at most
	// once per source and each demotion strictly grows the broadcast set,
	// so the loop terminates.
	for range 2*len(modes) + 2 {
		demote, changed := a.verify(modes)
		if changed {
			continue
		}
		if demote == nil {
			break
		}
		progressed := false
		for _, src := range demote {
			if pinned[src] {
				return nil, fmt.Errorf("core: live delta requires re-routing pinned source %q (%s); re-optimize offline",
					src, modes[src].Mode)
			}
			if modes[src].Mode != PartitionBroadcast {
				modes[src] = SourceRoute{Mode: PartitionBroadcast}
				progressed = true
			}
		}
		if !progressed && len(pinned) > 0 {
			return nil, fmt.Errorf("core: plan is not partitionable under the pinned routes; re-optimize offline")
		}
		if !progressed {
			// The conflicting input is already fully broadcast; the plan
			// cannot be partitioned at all.
			for src := range modes {
				modes[src] = SourceRoute{Mode: PartitionBroadcast}
			}
			break
		}
	}
	// Defense in depth: a pinned source's mode/attr must have survived
	// verification untouched (tryMulticast is blocked above, but a future
	// verify path could mutate modes).
	for name := range pinned {
		old, now := prev.Routes[name], modes[name]
		if now.Mode != old.Mode {
			return nil, fmt.Errorf("core: pinned source %q changed mode %s -> %s", name, old.Mode, now.Mode)
		}
		if (now.Mode == PartitionHash || now.Mode == PartitionMulticast) && now.Attr != old.Attr {
			return nil, fmt.Errorf("core: pinned source %q changed attribute a%d -> a%d", name, old.Attr, now.Attr)
		}
	}
	// The key-placement overlay travels with the pinned routes: the
	// distributed state sits where the moves put it.
	pp := &PartitionPlan{Routes: modes, ReplicatedSinks: make(map[int]bool), Table: prev.Table}
	status := make(map[int]partStatus)
	for _, q := range p.Queries {
		out := p.OutputOf(q.ID)
		if st, ok := a.status(out, modes, status); ok && st.kind == pRepl {
			pp.ReplicatedSinks[q.ID] = true
		}
	}
	for _, r := range modes {
		if r.Mode != PartitionBroadcast {
			pp.Parallel = true
		}
	}
	return pp, nil
}

// sortedSources returns the plan's used source names in sorted order.
func (a *analysis) sortedSources() []string {
	var names []string
	for name := range a.p.Catalog {
		if a.p.SourceStream(name) != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// sortedNodes returns the plan's nodes in ID order.
func (a *analysis) sortedNodes() []*Node {
	nodes := make([]*Node, 0, len(a.p.Nodes))
	for _, n := range a.p.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes
}

// proposeRoutes assigns initial routes: hash attributes inferred from
// resolvable equi-join and group-by constraints (first-wins per source),
// round-robin otherwise.
func (a *analysis) proposeRoutes() map[string]SourceRoute {
	prefs := make(map[string]int)
	record := func(src string, attr int) {
		if _, ok := prefs[src]; !ok {
			prefs[src] = attr
		}
	}
	for _, n := range a.sortedNodes() {
		for _, o := range n.Ops {
			switch n.Kind {
			case KindJoin, KindSeq, KindMu:
				for _, pr := range eqPairs(o) {
					lsrc, lattr, lok := a.origin(o.In[0], pr[0])
					rsrc, rattr, rok := a.origin(o.In[1], pr[1])
					if lok && rok {
						record(lsrc, lattr)
						record(rsrc, rattr)
					}
				}
			case KindAgg:
				for _, g := range o.Def.GroupBy {
					if src, attr, ok := a.origin(o.In[0], g); ok {
						record(src, attr)
						break
					}
				}
			}
		}
	}
	modes := make(map[string]SourceRoute)
	for _, name := range a.sortedSources() {
		if attr, ok := prefs[name]; ok {
			modes[name] = SourceRoute{Mode: PartitionHash, Attr: attr}
		} else {
			modes[name] = SourceRoute{Mode: PartitionRoundRobin}
		}
	}
	return modes
}

// isSource reports whether s is a source stream (sources are produced by
// a KindSource op in the plan).
func isSource(s *StreamRef) bool {
	return s.Producer == nil || s.Producer.Def.Kind == KindSource
}

// origin traces the value at position attr of a stream back to a source
// attribute, through selections, pass-through projections, group-by
// columns and concatenating binary operators.
func (a *analysis) origin(s *StreamRef, attr int) (string, int, bool) {
	for {
		if attr < 0 || attr >= s.Schema.Arity() {
			return "", 0, false
		}
		if isSource(s) {
			return s.Source, attr, true
		}
		o := s.Producer
		switch o.Def.Kind {
		case KindSelect:
			s = o.In[0]
		case KindProject:
			col, ok := o.Def.Map.Cols[attr].(expr.Col)
			if !ok {
				return "", 0, false
			}
			s, attr = o.In[0], col.I
		case KindAgg:
			if attr >= len(o.Def.GroupBy) {
				return "", 0, false
			}
			s, attr = o.In[0], o.Def.GroupBy[attr]
		case KindJoin, KindSeq, KindMu:
			if l := o.In[0].Schema.Arity(); attr < l {
				s = o.In[0]
			} else {
				s, attr = o.In[1], attr-l
			}
		default:
			return "", 0, false
		}
	}
}

// eqPairs extracts the equi-join conjuncts (left attr, right attr) of a
// binary operator usable as co-location keys. For µ, only conjuncts over
// the immutable start part qualify (the instance key must survive
// rebinding), and the filter edge must provably keep the instance alive
// on every event that misses the key (see muKeySafe): an instance only
// sees its own shard's events, so an event that would delete it must
// either carry the key (co-located) or be a no-op.
func eqPairs(o *Op) [][2]int {
	if o.Def.Pred2 == nil {
		return nil
	}
	lArity := o.In[0].Schema.Arity()
	var out [][2]int
	add := func(p expr.Pred2) {
		if ac, ok := p.(expr.AttrCmp2); ok && ac.Op == expr.Eq && ac.L < lArity {
			if o.Def.Kind == KindMu && !muKeySafe(o, ac.L, ac.R) {
				return
			}
			out = append(out, [2]int{ac.L, ac.R})
		}
	}
	switch q := o.Def.Pred2.(type) {
	case expr.And2:
		for _, part := range q.Parts {
			add(part)
		}
	default:
		add(o.Def.Pred2)
	}
	return out
}

// muKeySafe reports whether a µ operator keyed on l[la] = r[ra] behaves
// identically when its events are partitioned by the key: an event that
// misses the key must traverse the filter edge (instance unchanged), not
// delete the instance. Recognized idioms: filter ≡ true, and the Cayuga
// negated-key filter ¬(l[la] = r[ra]).
func muKeySafe(o *Op, la, ra int) bool {
	switch f := o.Def.Filter2.(type) {
	case nil:
		return false
	case expr.True2:
		return true
	case expr.Not2:
		if ac, ok := f.P.(expr.AttrCmp2); ok && ac.Op == expr.Eq && ac.L == la && ac.R == ra {
			return true
		}
	}
	return false
}

// verify computes stream statuses under the candidate modes. It returns
// the lineage (source names) of the input that must be demoted to
// broadcast on a conflict, or changed=true when it instead upgraded the
// conflicting probe source to multicast routing (re-verify).
func (a *analysis) verify(modes map[string]SourceRoute) (demote []string, changed bool) {
	status := make(map[int]partStatus)
	for _, n := range a.sortedNodes() {
		for _, o := range n.Ops {
			if n.Kind == KindSource {
				continue
			}
			if d := a.checkOp(o, modes, status); d != nil {
				if a.tryMulticast(o, modes) {
					return nil, true
				}
				return d, false
			}
		}
	}
	return nil, false
}

// checkOp validates one operator under the candidate modes, returning the
// sources to demote on a conflict.
func (a *analysis) checkOp(o *Op, modes map[string]SourceRoute, memo map[int]partStatus) []string {
	switch o.Def.Kind {
	case KindAgg:
		st, ok := a.status(o.In[0], modes, memo)
		if !ok {
			return a.sources(o.In[0])
		}
		if st.kind == pRepl {
			return nil
		}
		if st.kind == pAttr {
			for _, g := range o.Def.GroupBy {
				if g == st.attr {
					return nil
				}
			}
		}
		// Partitioned input whose partition key is not a group-by column:
		// group contributions would split across shards.
		return a.sources(o.In[0])
	case KindJoin, KindSeq, KindMu:
		ls, lok := a.status(o.In[0], modes, memo)
		rs, rok := a.status(o.In[1], modes, memo)
		if !lok {
			return a.sources(o.In[0])
		}
		if !rok {
			return a.sources(o.In[1])
		}
		if ls.kind == pMulti {
			return a.sources(o.In[0]) // multicast streams only probe
		}
		if rs.kind == pMulti {
			if a.multicastOpValid(o, modes, ls) {
				return nil
			}
			return a.sources(o.In[1])
		}
		if ls.kind == pRepl && rs.kind == pRepl {
			return nil
		}
		if ls.kind == pAttr && rs.kind == pAttr {
			for _, pr := range eqPairs(o) {
				if pr[0] == ls.attr && pr[1] == rs.attr {
					return nil // keyed: matching pairs co-locate
				}
			}
		}
		if rs.kind == pRepl {
			return nil // partitioned state, replicated probes
		}
		if ls.kind == pRepl && o.Def.Kind == KindJoin {
			// Replicated buffer, partitioned probes: every pair appears
			// exactly once, on the probing tuple's shard. Only sound for
			// joins (all pairs emitted): a sequence consumes its instance
			// at the first match and a µ chain must consume every
			// matching event, so each shard's replica would react to its
			// own shard's events instead of the global stream.
			return nil
		}
		return a.sources(o.In[1])
	}
	return nil
}

// multicastSpec is the FR/AN shape of one sequence operator that enables
// multicast routing of its right source: instances come from a constant
// selection over a hashable left source attribute, and (optionally) the
// operator only fires for one right-side constant.
type multicastSpec struct {
	srcL  string // left source
	lAttr int    // left source attribute the selection constant binds
	c1    int64  // selection constant (instances live on hash(c1))
	rAttr int    // right-side constant attribute, -1 if none
	c3    int64  // right-side constant
}

// multicastOpSpec extracts the FR/AN shape of a sequence operator, or
// ok=false when the operator does not qualify. The right input must be
// the source stream itself.
func (a *analysis) multicastOpSpec(o *Op) (multicastSpec, bool) {
	var spec multicastSpec
	if o.Def.Kind != KindSeq || !isSource(o.In[1]) {
		return spec, false
	}
	ls := o.In[0]
	if isSource(ls) || ls.Producer == nil || ls.Producer.Def.Kind != KindSelect {
		return spec, false
	}
	sel := ls.Producer
	attrL, c1, _, ok := expr.IndexableEq(sel.Def.Pred)
	if !ok {
		return spec, false
	}
	srcL, lAttr, ok := a.origin(sel.In[0], attrL)
	if !ok || srcL == o.In[1].Source {
		return spec, false
	}
	spec.srcL, spec.lAttr, spec.c1 = srcL, lAttr, c1
	spec.rAttr = -1
	if rA, c3, _, ok := expr.RightIndexableEq(o.Def.Pred2); ok {
		spec.rAttr, spec.c3 = rA, c3
	}
	return spec, true
}

// multicastOpValid re-checks, under the current modes, that a sequence op
// reading a multicast source is still covered by the source's routing
// table and that its instance side is hash-partitioned consistently.
func (a *analysis) multicastOpValid(o *Op, modes map[string]SourceRoute, ls partStatus) bool {
	spec, ok := a.multicastOpSpec(o)
	if !ok {
		return false
	}
	if lm := modes[spec.srcL]; lm.Mode != PartitionHash || lm.Attr != spec.lAttr {
		return false
	}
	if ls.kind != pAttr {
		return false
	}
	route := modes[o.In[1].Source]
	if spec.rAttr < 0 {
		return containsKey(route.Always, spec.c1)
	}
	if route.Attr != spec.rAttr {
		return false
	}
	return containsKey(route.Table[spec.c3], spec.c1)
}

func containsKey(keys []int64, k int64) bool {
	for _, v := range keys {
		if v == k {
			return true
		}
	}
	return false
}

// multicastTable scans every consumer of a source stream and builds the
// content-based routing table: each consumer must be a qualifying FR/AN
// sequence over one common left source (see multicastOpSpec). ok is false
// when any consumer disqualifies the source.
func (a *analysis) multicastTable(rStream *StreamRef) (srcL string, lAttr, rAttr int, table map[int64][]int64, always []int64, ok bool) {
	lAttr, rAttr = -1, -1
	if len(a.p.OutputQueries(rStream)) > 0 {
		return // a query reads the source directly
	}
	consumers := a.p.Consumers(rStream)
	if len(consumers) == 0 {
		return
	}
	table = make(map[int64][]int64)
	for _, c := range consumers {
		if c.In[len(c.In)-1] != rStream || (len(c.In) > 1 && c.In[0] == rStream) {
			return "", -1, -1, nil, nil, false // right side only
		}
		spec, specOK := a.multicastOpSpec(c)
		if !specOK {
			return "", -1, -1, nil, nil, false
		}
		if srcL == "" {
			srcL, lAttr = spec.srcL, spec.lAttr
		} else if srcL != spec.srcL || lAttr != spec.lAttr {
			return "", -1, -1, nil, nil, false
		}
		if spec.rAttr < 0 {
			always = appendKey(always, spec.c1)
			continue
		}
		if rAttr == -1 {
			rAttr = spec.rAttr
		} else if rAttr != spec.rAttr {
			return "", -1, -1, nil, nil, false
		}
		table[spec.c3] = appendKey(table[spec.c3], spec.c1)
	}
	if srcL == "" {
		return "", -1, -1, nil, nil, false
	}
	if rAttr == -1 {
		rAttr = 0 // Always-only routing; the probed attribute is unused
	}
	ok = true
	return
}

// tryMulticast attempts to resolve a probe-side conflict by routing the
// right source with a content-based multicast table: every consumer of
// the source must be a qualifying FR/AN sequence over one common left
// source, which is then hash-partitioned on the selection attribute.
func (a *analysis) tryMulticast(o *Op, modes map[string]SourceRoute) bool {
	if o.Def.Kind != KindSeq || !isSource(o.In[1]) {
		return false
	}
	rStream := o.In[1]
	srcR := rStream.Source
	if a.multicastTried[srcR] || modes[srcR].Mode == PartitionMulticast {
		return false
	}
	a.multicastTried[srcR] = true
	srcL, lAttr, rAttr, table, always, ok := a.multicastTable(rStream)
	if !ok {
		return false
	}
	// The instance side must hash on the selection attribute.
	switch cur := modes[srcL]; {
	case cur.Mode == PartitionHash && cur.Attr != lAttr:
		return false
	case cur.Mode == PartitionBroadcast || cur.Mode == PartitionMulticast:
		return false
	}
	modes[srcL] = SourceRoute{Mode: PartitionHash, Attr: lAttr}
	modes[srcR] = SourceRoute{Mode: PartitionMulticast, Attr: rAttr, Table: table, Always: always}
	return true
}

// appendKey adds k to keys if absent (small sets; partner lists stay
// deduplicated and deterministic).
func appendKey(keys []int64, k int64) []int64 {
	if containsKey(keys, k) {
		return keys
	}
	return append(keys, k)
}

// status computes the distribution status of a stream under the candidate
// modes. ok is false when a status cannot be derived (the caller then
// demotes the stream's lineage, making it pRepl).
func (a *analysis) status(s *StreamRef, modes map[string]SourceRoute, memo map[int]partStatus) (partStatus, bool) {
	if st, ok := memo[s.ID]; ok {
		return st, true
	}
	st, ok := a.statusUncached(s, modes, memo)
	if ok {
		memo[s.ID] = st
	}
	return st, ok
}

func (a *analysis) statusUncached(s *StreamRef, modes map[string]SourceRoute, memo map[int]partStatus) (partStatus, bool) {
	if isSource(s) {
		r := modes[s.Source]
		switch r.Mode {
		case PartitionHash:
			return partStatus{kind: pAttr, attr: r.Attr}, true
		case PartitionRoundRobin:
			return partStatus{kind: pAny}, true
		case PartitionMulticast:
			return partStatus{kind: pMulti}, true
		default:
			return partStatus{kind: pRepl}, true
		}
	}
	o := s.Producer
	switch o.Def.Kind {
	case KindSelect:
		return a.status(o.In[0], modes, memo)
	case KindProject:
		in, ok := a.status(o.In[0], modes, memo)
		if !ok {
			return partStatus{}, false
		}
		if in.kind != pAttr {
			return in, true
		}
		for j, c := range o.Def.Map.Cols {
			if col, isCol := c.(expr.Col); isCol && col.I == in.attr {
				return partStatus{kind: pAttr, attr: j}, true
			}
		}
		return partStatus{kind: pAny}, true
	case KindAgg:
		in, ok := a.status(o.In[0], modes, memo)
		if !ok {
			return partStatus{}, false
		}
		if in.kind == pRepl {
			return in, true
		}
		if in.kind == pAttr {
			for j, g := range o.Def.GroupBy {
				if g == in.attr {
					return partStatus{kind: pAttr, attr: j}, true
				}
			}
		}
		return partStatus{}, false // checkOp reports the conflict
	case KindJoin, KindSeq, KindMu:
		ls, lok := a.status(o.In[0], modes, memo)
		rs, rok := a.status(o.In[1], modes, memo)
		if !lok || !rok || ls.kind == pMulti {
			return partStatus{}, false
		}
		if rs.kind == pMulti {
			// Probes of a multicast source pair with hash-partitioned
			// instances; outputs live on the instance's shard (checkOp
			// validates coverage).
			return ls, true
		}
		lArity := o.In[0].Schema.Arity()
		switch {
		case ls.kind == pRepl && rs.kind == pRepl:
			return partStatus{kind: pRepl}, true
		case ls.kind == pAttr && rs.kind == pAttr:
			for _, pr := range eqPairs(o) {
				if pr[0] == ls.attr && pr[1] == rs.attr {
					return partStatus{kind: pAttr, attr: ls.attr}, true
				}
			}
			return partStatus{}, false
		case rs.kind == pRepl:
			return ls, true // output carries the left status positions
		case ls.kind == pRepl && o.Def.Kind == KindJoin:
			if rs.kind == pAttr {
				return partStatus{kind: pAttr, attr: lArity + rs.attr}, true
			}
			return partStatus{kind: pAny}, true
		default:
			return partStatus{}, false
		}
	}
	return partStatus{}, false
}

// sources returns the sorted source names in the lineage of a stream.
func (a *analysis) sources(s *StreamRef) []string {
	if names, ok := a.lineage[s.ID]; ok {
		return names
	}
	set := make(map[string]bool)
	var walk func(s *StreamRef)
	seen := make(map[int]bool)
	walk = func(s *StreamRef) {
		if seen[s.ID] {
			return
		}
		seen[s.ID] = true
		if isSource(s) {
			set[s.Source] = true
			return
		}
		for _, in := range s.Producer.In {
			walk(in)
		}
	}
	walk(s)
	names := sortedKeys(set)
	a.lineage[s.ID] = names
	return names
}
