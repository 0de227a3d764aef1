// Package rules implements RUMOR's m-rules (§2.3): transformation rules
// over physical plans composed of m-ops. Each rule is a condition/action
// pair: the condition identifies a set of operators with a sharing
// opportunity; the action replaces them with a single m-op (and, for the
// channel rules, encodes their input streams into a channel).
//
// Rules implemented (paper Table 1):
//
//	CSE          — common subexpression elimination: identical operators
//	               reading identical streams collapse into one (s; and sµ,
//	               which the paper shows equal Cayuga prefix state merging,
//	               §4.3; also shares identical aggregates, Fig 6).
//	sσ, sπ       — predicate indexing [10,16]: selections (projections)
//	               reading the same edge merge into one m-op.
//	sα           — shared aggregate evaluation [22]: same aggregate
//	               function and attribute; group-by may differ, and
//	               windows may differ (state bounded by the largest
//	               window, as s⨝).
//	s⨝           — shared join evaluation [12]: same join predicate,
//	               windows may differ.
//	s;AN, sµAN   — Cayuga AN/AI index sharing: ;/µ operators reading the
//	               same right stream merge into one m-op whose internals
//	               index right-side constants (AN), hash stored instances
//	               on equi-join attributes (AI), and share state among
//	               operators equal up to their duration windows.
//	cσ,cπ,cα,c⨝, — channel-based MQO (§3.3, §4.4): operators of equal
//	c;,cµ          definition reading sharable streams produced by the
//	               same m-op have those streams encoded into a channel and
//	               are merged into a single m-op. Includes shared fragment
//	               aggregation [15] and precision sharing join [14].
//
// The optimizer applies rules in priority order to a fixpoint (§7's
// conflict-resolution strategy).
//
// Live maintenance (package live) runs the same rules, seeded by the
// delta: every rule is wrapped in Seeded, which scans the whole plan when
// no delta is recording and, while one is, only the dirty nodes and their
// sharing partners. The plan is already at the rules' fixpoint, so a
// re-run after an added query only fires where the new operators create
// sharing. Two properties keep running operator state valid:
//
//   - CSE keeps the lowest-ID (pre-existing) operator of a collapsed
//     group, so stored state and query outputs always migrate toward the
//     operator the engine already runs.
//   - While a delta is recording, channel encoding is append-only
//     (Channelize): an existing channel may grow by the new streams, and
//     new channels may form from delta-new edges, but a pre-existing plain
//     edge is never re-encoded — stored plain tuples carry no membership,
//     so re-encoding would make the running consumers' state unreadable.
//     Growth first reclaims tombstoned slots (EncodeChannel slot reuse,
//     scrubbing their stored bits through a delta-recorded remap), so an
//     add/remove/add cycle of the same query does not widen the
//     membership words.
package rules

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Rule is an m-rule: Apply scans the plan for operator sets satisfying the
// rule's condition and performs the merge action, reporting whether the
// plan changed.
type Rule interface {
	Name() string
	Apply(p *core.Physical) (bool, error)
}

// Options selects which rule families the optimizer uses.
type Options struct {
	// Channels enables the channel-based m-rules, the cτ rules of
	// §3.3/§4.4 (cσ, cα, c⨝, c;, cµ). A channel encodes at least two
	// distinct sharable streams. Disabling them yields the paper's
	// "without channel" comparison plans (Figures 10(c,d), 11).
	Channels bool
}

// maxRounds bounds fixpoint iteration.
const maxRounds = 32

// Default returns the standard rule set in priority order, each rule
// seeded by the active delta (Seeded).
func Default(opt Options) []Rule {
	rs := []Rule{
		Seeded{CSE{}},
		Seeded{MergeSameInput{Kind: core.KindSelect}},
		Seeded{MergeSameInput{Kind: core.KindProject}},
		Seeded{MergeAgg{}},
		Seeded{MergeJoin{}},
		Seeded{MergeSeq{Kind: core.KindSeq}},
		Seeded{MergeSeq{Kind: core.KindMu}},
	}
	if opt.Channels {
		rs = append(rs, Seeded{Channelize{}})
	}
	return rs
}

// Optimizer applies a rule list to a fixpoint.
type Optimizer struct {
	Rules []Rule
}

// NewOptimizer builds an optimizer with the default rules for opt.
func NewOptimizer(opt Options) *Optimizer {
	return &Optimizer{Rules: Default(opt)}
}

// Run rewrites the plan until no rule applies (or the round cap is hit).
// It returns the number of rounds in which at least one rule fired. It
// does not validate the plan: Optimize does, and live maintenance does
// once it has taken the delta.
func (o *Optimizer) Run(p *core.Physical) (int, error) {
	rounds := 0
	for r := 0; r < maxRounds; r++ {
		changed := false
		for _, rule := range o.Rules {
			c, err := rule.Apply(p)
			if err != nil {
				return rounds, fmt.Errorf("rule %s: %w", rule.Name(), err)
			}
			changed = changed || c
		}
		if !changed {
			return rounds, nil
		}
		rounds++
	}
	return rounds, nil
}

// Optimize is the one-call entry point: apply the default rules for opt to
// plan p.
func Optimize(p *core.Physical, opt Options) error {
	_, err := NewOptimizer(opt).Run(p)
	if err != nil {
		return err
	}
	return p.Validate()
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// nodesOf returns the plan nodes whose kind passes want, in ID order: the
// full-scan candidate set of a standard rule, restricted to the kinds the
// rule can group so that it sorts no node it would skip.
func nodesOf(p *core.Physical, want func(core.OpKind) bool) []*core.Node {
	var out []*core.Node
	for _, n := range p.Nodes {
		if want(n.Kind) {
			out = append(out, n)
		}
	}
	slices.SortFunc(out, func(a, b *core.Node) int { return a.ID - b.ID })
	return out
}

// notSource selects every operator node: the kinds CSE and the channel
// rules group.
func notSource(k core.OpKind) bool { return k != core.KindSource }

// kindIs selects the nodes of one kind.
func kindIs(kind core.OpKind) func(core.OpKind) bool {
	return func(k core.OpKind) bool { return k == kind }
}

// edgePartners names the edge of s (whose consumers are the sharing
// partners of the edge-keyed merge rules) as a partner set.
func edgePartners(p *core.Physical, s *core.StreamRef, dst []partnerSet) []partnerSet {
	if e := p.StreamEdge(s); e != nil {
		dst = append(dst, partnerSet{edge: e})
	}
	return dst
}

// fireable returns the keys of the groups with at least min members,
// ordered by their rendering: the groups are keyed by comparable structs
// so that building a group costs no string formatting, and only the few
// groups that can fire pay for the string that fixes their order.
func fireable[K comparable, V any](groups map[K][]V, min int, render func(K) string) []K {
	type entry struct {
		k K
		s string
	}
	var es []entry
	for k, g := range groups {
		if len(g) >= min {
			es = append(es, entry{k, render(k)})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].s < es[j].s })
	keys := make([]K, len(es))
	for i, e := range es {
		keys[i] = e.k
	}
	return keys
}

// edgeGroup renders an edge-ID group key as the merge rules order it.
func edgeGroup(id int) string { return "e" + strconv.Itoa(id) }

// mergeNodeGroups merges each group of ≥2 distinct live nodes, in the
// order render gives their keys.
func mergeNodeGroups[K comparable](p *core.Physical, groups map[K][]*core.Node, render func(K) string) (bool, error) {
	changed := false
	for _, k := range fireable(groups, 2, render) {
		nodes := dedupeLive(p, groups[k])
		if len(nodes) < 2 {
			continue
		}
		if _, err := p.MergeNodes(nodes); err != nil {
			return changed, err
		}
		changed = true
	}
	return changed, nil
}

func dedupeLive(p *core.Physical, nodes []*core.Node) []*core.Node {
	seen := map[int]bool{}
	var out []*core.Node
	for _, n := range nodes {
		if seen[n.ID] {
			continue
		}
		if _, ok := p.Nodes[n.ID]; !ok {
			continue
		}
		seen[n.ID] = true
		out = append(out, n)
	}
	return out
}

// inIDs holds the IDs of an op's inputs (streams or their edges); every
// operator kind has at most two. Unused slots are -1.
type inIDs [2]int

// inStreamIDs returns the input stream IDs of an op.
func inStreamIDs(o *core.Op) inIDs {
	ids := inIDs{-1, -1}
	for i, s := range o.In {
		ids[i] = s.ID
	}
	return ids
}

// inEdgeIDs returns the IDs of the edges carrying an op's inputs.
func inEdgeIDs(p *core.Physical, o *core.Op) inIDs {
	ids := inIDs{-1, -1}
	for i, s := range o.In {
		ids[i] = p.StreamEdge(s).ID
	}
	return ids
}

// render joins the used IDs, each behind prefix, with commas.
func (ids inIDs) render(prefix string) string {
	var parts []string
	for _, id := range ids {
		if id >= 0 {
			parts = append(parts, prefix+strconv.Itoa(id))
		}
	}
	return strings.Join(parts, ",")
}
