package rules

import (
	"sort"

	"repro/internal/core"
)

// candidateRule is a rule that can run over a subset of the plan's nodes
// and name the sharing partners of one operator. Every standard rule
// implements it; Seeded uses it to turn a full-plan scan into a
// dirty-neighbourhood scan.
type candidateRule interface {
	Rule
	// applyNodes runs the rule's condition/action over the ops of the
	// given nodes only. Groups are formed exactly as by Apply, so passing
	// a superset of any fireable group's nodes preserves behaviour.
	applyNodes(p *core.Physical, nodes []*core.Node) (bool, error)
	// partners appends to dst the stream sets whose consumers could share
	// with o under this rule: the op's input stream, its input edge, or
	// its input's share class.
	partners(p *core.Physical, o *core.Op, dst []partnerSet) []partnerSet
}

// partnerSet names one set of streams whose consumers are sharing
// partners: exactly one of its fields is set. It is comparable, so Seeded
// walks each set once however many dirty ops name it — the ops of one
// merged m-op typically all name the same edge or share class.
type partnerSet struct {
	stream *core.StreamRef // this one stream
	edge   *core.Edge      // every stream of this edge
	class  string          // every live stream of this ∼ share class
}

// streams returns the set's members; the result must not be mutated.
func (ps partnerSet) streams(p *core.Physical) []*core.StreamRef {
	switch {
	case ps.stream != nil:
		return []*core.StreamRef{ps.stream}
	case ps.edge != nil:
		return ps.edge.Streams
	}
	return p.StreamsOfClass(ps.class)
}

// Seeded restricts a rule to the neighbourhood of the active delta's dirty
// nodes: the candidate set is the dirty nodes plus each dirty operator's
// sharing partners. On a plan at the rule set's fixpoint before the delta,
// every fireable group contains a dirty operator, so the restriction is
// behaviour-preserving — and an AddQueryLive touches O(|query| + partners)
// operators instead of the whole plan, each partner set walked once however
// many dirty operators name it. Without an active delta recording, Seeded
// degrades to the full scan.
type Seeded struct {
	inner candidateRule
}

// Name implements Rule.
func (s Seeded) Name() string { return s.inner.Name() }

// Apply implements Rule.
func (s Seeded) Apply(p *core.Physical) (bool, error) {
	if !p.Recording() {
		return s.inner.Apply(p)
	}
	cand := make(map[int]*core.Node)
	var last *core.Node // consecutive partners mostly share one m-op
	add := func(n *core.Node) {
		if n == nil || n == last {
			return
		}
		last = n
		if cur, ok := p.Nodes[n.ID]; ok && cur == n {
			cand[n.ID] = n
		}
	}
	// The sets of one rule are disjoint (a stream has one edge and one
	// class), so deduping the sets dedupes the streams walked. The ops of
	// one m-op mostly name the set the previous op named, which the
	// lastSet check settles without hashing a share-class string.
	seen := make(map[partnerSet]bool)
	var lastSet partnerSet
	var sets []partnerSet
	for _, id := range p.DirtyNodes() {
		n, ok := p.Nodes[id]
		if !ok {
			continue
		}
		add(n)
		for _, o := range n.Ops {
			sets = s.inner.partners(p, o, sets[:0])
			for _, ps := range sets {
				if ps == lastSet || seen[ps] {
					continue
				}
				lastSet = ps
				seen[ps] = true
				for _, st := range ps.streams(p) {
					for _, po := range p.Consumers(st) {
						add(po.Node)
					}
				}
			}
		}
	}
	if len(cand) == 0 {
		return false, nil
	}
	nodes := make([]*core.Node, 0, len(cand))
	for _, n := range cand {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return s.inner.applyNodes(p, nodes)
}
