package rules

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Channelize implements the cτ rules (§3.3, §4.4) for every operator kind:
// selections, projections, aggregations (shared fragment aggregation,
// [15]), joins (precision sharing join, [14] — both join sides are
// considered), and the sequence operators ; and µ (the paper's new
// channel-based MQO, §4.4 — left side, as the paper requires the second
// input stream to be identical).
//
// Condition — the channel-based MQO sharing criteria of §3.2: a set of
// operators of the same kind and the same definition whose candidate input
// streams (a) belong to the same ∼ equivalence class, (b) are produced by
// the same m-op (or by source streams declared sharable by label, which
// the rule first merges into one source m-op), and (c) read the same
// remaining input stream (binary kinds).
//
// Action: encode the candidate input streams into a single channel and
// merge the consumer operators into one m-op.
//
// MinStreams (default 2) is a lightweight profitability gate reflecting
// the paper's §3.2 tradeoff discussion ("streams should only be mapped to
// the same channel if there is a large enough fraction of channel tuples
// that belong to multiple streams"): groups encoding fewer distinct
// streams than the threshold are left alone. Cost-based selection is
// future work in the paper and here.
//
// With Live set, channel encoding is append-only, the variant live
// maintenance runs on a plan with running operator state (see live.go).
// It requires an active delta recording on the plan (core.BeginDelta) to
// tell delta-new edges from pre-existing ones.
type Channelize struct {
	MinStreams int
	Live       bool
}

// Name implements Rule.
func (r Channelize) Name() string {
	if r.Live {
		return "channelize-live"
	}
	return "channelize"
}

// Apply implements Rule.
func (r Channelize) Apply(p *core.Physical) (bool, error) {
	return r.applyNodes(p, nodesOf(p, notSource))
}

func (r Channelize) applyNodes(p *core.Physical, nodes []*core.Node) (bool, error) {
	return applyChannelize(p, nodes, r.MinStreams, r.Live)
}

// partners: channel partners consume the live streams of the input's ∼
// share class (both sides for joins, which channelize both inputs), found
// through the plan's share-class index.
func (Channelize) partners(_ *core.Physical, o *core.Op, dst []partnerSet) []partnerSet {
	if len(o.In) == 0 {
		return dst
	}
	sides := o.In[:1]
	if o.Def.Kind == core.KindJoin {
		sides = o.In
	}
	for _, in := range sides {
		dst = append(dst, partnerSet{class: in.ShareClass})
	}
	return dst
}

// chanKey groups the candidate ops of one channel action: kind,
// definition and first input's share class, plus the second input's share
// class for joins (c⨝ channelizes both sides) or the second input's edge
// for ; and µ (which must read it identically).
type chanKey struct {
	kind   core.OpKind
	def    string
	class0 string
	class1 string // joins only
	edge1  int    // ; and µ only, else -1
}

func (k chanKey) String() string {
	s := k.kind.String() + "|" + k.def + "|" + k.class0
	switch k.kind {
	case core.KindJoin:
		s += "|" + k.class1
	case core.KindSeq, core.KindMu:
		s += "|re" + strconv.Itoa(k.edge1)
	}
	return s
}

func applyChannelize(p *core.Physical, nodes []*core.Node, minStreams int, live bool) (bool, error) {
	if minStreams < 2 {
		minStreams = 2
	}
	groups := make(map[chanKey][]*core.Op)
	for _, n := range nodes {
		if n.Kind == core.KindSource {
			continue
		}
		for _, o := range n.Ops {
			k := chanKey{kind: o.Def.Kind, def: o.Def.Key(), class0: o.In[0].ShareClass, edge1: -1}
			switch o.Def.Kind {
			case core.KindJoin:
				// c⨝ (Table 1): "join operators which read sharable
				// streams, with the same definition" — both sides are
				// grouped by share class and channelized together.
				k.class1 = o.In[1].ShareClass
			case core.KindSeq, core.KindMu:
				// c;/cµ (§4.4): sharable first inputs, identical second
				// input stream.
				k.edge1 = p.StreamEdge(o.In[1]).ID
			}
			groups[k] = append(groups[k], o)
		}
	}
	changed := false
	for _, k := range fireable(groups, minStreams, chanKey.String) {
		ops := groups[k]
		sides := []int{0}
		if k.kind == core.KindJoin {
			sides = []int{0, 1}
		}
		for _, idx := range sides {
			c, err := channelizeGroup(p, ops, idx, minStreams, live)
			if err != nil {
				return changed, err
			}
			changed = changed || c
		}
	}
	return changed, nil
}

// channelizeGroup applies the channel action to one candidate operator
// set. It returns false without error when the group is already fully
// channelized or fails a structural precondition (e.g. streams produced by
// different non-source m-ops).
//
// In live mode (applied to a running plan) channel growth is append-only:
// the group may extend at most one pre-existing channel with streams whose
// edges were created during the active delta, or form a brand-new channel
// from delta-new edges exclusively. Re-encoding a pre-existing plain edge
// is refused — it would retroactively give stored plain tuples a
// membership structure the running operators' state does not carry.
// Extending a pre-existing channel hands its tombstoned slots to the new
// streams first (EncodeChannel slot reuse), so membership words stay
// bounded under add/remove churn.
func channelizeGroup(p *core.Physical, ops []*core.Op, inIdx, minStreams int, live bool) (bool, error) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })

	// Distinct input streams and the edges carrying them.
	var streams []*core.StreamRef
	seenStream := map[int]bool{}
	edgeIDs := map[int]bool{}
	for _, o := range ops {
		s := o.In[inIdx]
		if !seenStream[s.ID] {
			seenStream[s.ID] = true
			streams = append(streams, s)
		}
		edgeIDs[p.StreamEdge(s).ID] = true
	}
	if len(streams) < minStreams {
		return false, nil
	}
	if live && len(edgeIDs) > 1 {
		// Append-only gate: ≤1 pre-existing channel, no pre-existing plain
		// edges, everything else delta-new.
		existingChannels := 0
		for id := range edgeIDs {
			if p.NewEdge(id) {
				continue
			}
			e := p.Edges[id]
			if e == nil || !e.IsChannel() {
				return false, nil
			}
			existingChannels++
		}
		if existingChannels > 1 {
			return false, nil
		}
		// Keep the pre-existing channel's streams first so EncodeChannel
		// preserves their membership positions and the delta-new streams
		// are appended after them.
		sort.SliceStable(streams, func(i, j int) bool {
			return !p.NewEdge(p.StreamEdge(streams[i]).ID) && p.NewEdge(p.StreamEdge(streams[j]).ID)
		})
	}

	// Producer check (§3.2 criterion (b)).
	producers := map[*core.Node]bool{}
	for _, s := range streams {
		if s.Producer == nil {
			return false, nil
		}
		producers[s.Producer.Node] = true
	}
	if len(producers) > 1 {
		// Only sharable-labelled sources may be unified into one producer.
		var srcNodes []*core.Node
		for n := range producers {
			if n.Kind != core.KindSource {
				return false, nil
			}
			srcNodes = append(srcNodes, n)
		}
		if !strings.HasPrefix(streams[0].ShareClass, "src:") {
			return false, nil
		}
		sort.Slice(srcNodes, func(i, j int) bool { return srcNodes[i].ID < srcNodes[j].ID })
		if _, err := p.MergeNodes(srcNodes); err != nil {
			return false, err
		}
	}

	changed := false
	if len(edgeIDs) > 1 {
		if _, err := p.EncodeChannel(streams); err != nil {
			return changed, err
		}
		changed = true
	}

	// Merge the consumer operators into one m-op.
	consumerNodes := map[int]*core.Node{}
	for _, o := range ops {
		consumerNodes[o.Node.ID] = o.Node
	}
	if len(consumerNodes) > 1 {
		var nodes []*core.Node
		for _, n := range consumerNodes {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		if _, err := p.MergeNodes(nodes); err != nil {
			return changed, err
		}
		changed = true
	}
	return changed, nil
}
