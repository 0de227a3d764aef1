package mop

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
)

// Splicing keeps a ;/µ m-op in line with its plan node: the operators the
// node gains are added to their state groups (a group is created when the
// first operator of its key arrives), the operators it loses are dropped
// (a group goes, with its stored state, when the last one does), ports are
// taken and freed with the operators that use them, and the groups whose
// operators changed are resealed. Stores, hash indexes and dispatch tables
// stay in place, so a live add costs what it changes, not what the m-op
// holds. Lowering a fresh node is the same splice into an empty m-op.

// groupKey identifies a state group: operators of one group read the same
// left and right ports and have equal definitions up to their windows.
type groupKey struct {
	lport, rport int
	def          string
}

// seqOp is one operator as spliced in: its group, ports and positions.
type seqOp struct {
	g            *stateGroup
	lport, rport int
	lpos, rpos   int
	tg           target
}

// portSet is one side of a spliced m-op's port layout: edges[i] is port
// i's edge (nil: free), users[i] the operator sides using it, width[i] the
// edge's stream count when last seen, and of maps an edge ID to its port.
// Within a splice, moved holds the ports whose edge is being replaced and
// changed lists the ports whose edge changed.
type portSet struct {
	edges   []*core.Edge
	users   []int
	width   []int
	free    int // free ports
	of      map[int]int
	moved   map[int]*core.Edge
	changed []int
}

// take returns the port of e, allocating the lowest free port when e has
// none, and counts one more user.
func (ps *portSet) take(e *core.Edge) int {
	port, ok := ps.of[e.ID]
	if !ok {
		if port = len(ps.edges); ps.free > 0 {
			port, ps.free = slices.Index(ps.edges, nil), ps.free-1
		} else {
			ps.edges, ps.users, ps.width = append(ps.edges, nil), append(ps.users, 0), append(ps.width, 0)
		}
		ps.edges[port], ps.width[port], ps.of[e.ID] = e, len(e.Streams), port
		ps.changed = append(ps.changed, port)
	}
	ps.users[port]++
	return port
}

// release counts one user less, freeing the port with its last user.
func (ps *portSet) release(port int) {
	if ps.users[port]--; ps.users[port] == 0 {
		delete(ps.of, ps.edges[port].ID)
		ps.edges[port] = nil
		ps.free++
		ps.changed = append(ps.changed, port)
	}
}

// follow finds where the edges of the given ports (all ports when all)
// went. A port whose edge the plan still has, at its width, stays. A port
// whose edge was rebuilt (a channel grown into a new edge) moves to the
// edge that now carries every live stream of the old one at the same
// membership position. An edge left with no live stream serves only
// operators the splice drops. It reports false for any other change: an
// edge rewritten in place (compacted), or streams that split, shifted or
// left a channel.
func (ps *portSet) follow(p *core.Physical, all bool, ports []int) bool {
	if all {
		ports = ports[:0]
		for i := range ps.edges {
			ports = append(ports, i)
		}
	}
	for _, i := range ports {
		e := ps.edges[i]
		if e == nil {
			continue
		}
		if p.Edges[e.ID] == e {
			if len(e.Streams) != ps.width[i] {
				return false
			}
			continue
		}
		var to *core.Edge
		for j, s := range e.Streams {
			if s.Dead {
				continue
			}
			ne, pos := p.EdgeOf(s)
			if ne == nil || pos != j || to != nil && ne != to {
				return false
			}
			to = ne
		}
		if to == nil {
			continue // only operators the splice drops use the port
		}
		if _, taken := ps.of[to.ID]; taken || to.IsChannel() != e.IsChannel() ||
			slices.Contains(slices.Collect(maps.Values(ps.moved)), to) {
			return false
		}
		ps.moved[i] = to
	}
	return true
}

// settle applies the replacements follow recorded.
func (ps *portSet) settle() {
	for port, e := range ps.moved {
		delete(ps.of, ps.edges[port].ID)
		ps.edges[port], ps.width[port], ps.of[e.ID] = e, len(e.Streams), port
		ps.changed = append(ps.changed, port)
	}
	clear(ps.moved)
}

func channelPos(e *core.Edge, pos int) int {
	if !e.IsChannel() {
		return -1
	}
	return pos
}

func newSeqMOp(tp *stream.Pool, mu bool) *SeqMOp {
	return &SeqMOp{
		mu:    mu,
		ce:    newChanEmitter(0, tp),
		pool:  tp,
		vec:   true,
		in:    portSet{of: make(map[int]int), moved: make(map[int]*core.Edge)},
		out:   portSet{of: make(map[int]int), moved: make(map[int]*core.Edge)},
		byKey: make(map[groupKey]*stateGroup),
		ops:   make(map[int]*seqOp),
		maxOp: -1,
	}
}

// Splice brings l, the running lowering of a ; or µ node, in line with n
// after the plan delta d (nil for a fresh lowering): the m-op gains n's
// operators it does not run, which Splice returns, and drops the ones n no
// longer has, and l's port wiring is refreshed. It reports false, having
// changed nothing, when l is not of n's kind, when n's operator list is not
// the last one with operators dropped and new ones appended, or when an
// edge under its ports changed in a way follow refuses; the caller then
// lowers n afresh. An operator rewired to another input stream read a
// stream that died, and so an edge that follow refuses.
func Splice(p *core.Physical, d *core.Delta, n *core.Node, l *Lowered) ([]*core.Op, bool, error) {
	m, ok := l.MOp.(*SeqMOp)
	if !ok || m.mu != (n.Kind == core.KindMu) {
		return nil, false, nil
	}
	// A walk against the last splice's operator list finds the dropped
	// operators; the new ones were created by the delta, so their IDs are
	// above every ID the m-op has run.
	var removed []*core.Op
	j := 0
	for _, o := range m.last {
		if j < len(n.Ops) && n.Ops[j] == o {
			j++
		} else {
			removed = append(removed, o)
		}
	}
	added := n.Ops[j:]
	if slices.ContainsFunc(added, func(o *core.Op) bool { return o.ID <= m.maxOp }) {
		return nil, false, nil
	}
	// Input ports are few and all followed; of the output ports, those of
	// the edges the delta dropped or compacted are, unless an operator
	// left: an edge can then lose a stream in place.
	var outs []int
	if d != nil {
		for id := range d.RemovedEdges {
			if port, ok := m.out.of[id]; ok {
				outs = append(outs, port)
			}
		}
		for _, cr := range d.Remaps {
			if port, ok := m.out.of[cr.EdgeID]; ok {
				outs = append(outs, port)
			}
		}
	}
	m.out.changed = m.out.changed[:0]
	if !m.in.follow(p, true, nil) || !m.out.follow(p, d == nil || len(removed) > 0, outs) {
		clear(m.in.moved)
		clear(m.out.moved)
		return nil, false, nil
	}
	var touched []*stateGroup
	touch := func(g *stateGroup) {
		if !g.resealed {
			g.resealed = true
			touched = append(touched, g)
		}
	}
	for _, o := range removed {
		m.dropOp(o.ID, touch)
	}
	if len(removed) > 0 {
		m.last = append(m.last[:0], n.Ops[:j]...)
	}
	m.last = append(m.last, added...)
	m.in.settle()
	m.out.settle()
	// Ports are taken in lowering order: every left edge, then every right
	// edge, then the outputs.
	recs := make([]seqOp, len(added))
	if len(m.ops) == 0 {
		m.ops = make(map[int]*seqOp, len(added))
	}
	for i, o := range added {
		recs[i].lport = m.in.take(p.StreamEdge(o.In[0]))
	}
	for i, o := range added {
		recs[i].rport = m.in.take(p.StreamEdge(o.In[1]))
	}
	for i, o := range added {
		recs[i].tg.port = m.out.take(p.StreamEdge(o.Out))
	}
	for len(m.lefts) < len(m.in.edges) {
		m.lefts, m.rights = append(m.lefts, nil), append(m.rights, nil)
	}
	for len(m.ce.member) < len(m.out.edges) {
		m.ce.member = append(m.ce.member, memberAcc{})
	}
	for i, o := range added {
		if err := m.addOp(p, o, &recs[i], touch); err != nil {
			return nil, false, err
		}
	}
	for _, g := range touched {
		if g.resealed = false; len(g.ops) > 0 {
			g.seal()
		}
	}
	for port := range m.lefts {
		for _, d := range []*dispatch{m.lefts[port], m.rights[port]} {
			if d != nil {
				d.seal()
			}
		}
	}
	m.vec = m.wide == 0
	l.InEdges, l.OutEdges, l.PortUses, l.OutChanged = m.in.edges, m.out.edges, m.portUses(), m.out.changed
	return added, true, nil
}

// addOp splices in operator o, whose ports r already holds.
func (m *SeqMOp) addOp(p *core.Physical, o *core.Op, r *seqOp, touch func(*stateGroup)) error {
	if r.lport == r.rport {
		return fmt.Errorf("seq op %d reads both inputs from one edge", o.ID)
	}
	e, i := p.EdgeOf(o.In[0])
	r.lpos = channelPos(e, i)
	e, i = p.EdgeOf(o.In[1])
	r.rpos = channelPos(e, i)
	e, i = p.EdgeOf(o.Out)
	r.tg.pos = channelPos(e, i)
	k := groupKey{lport: r.lport, rport: r.rport, def: o.Def.KeyModuloWindow()}
	g := m.byKey[k]
	if g == nil {
		g = m.newGroup(o, k)
	}
	g.ops = append(g.ops, windowOp{window: o.Def.Window, leftPos: r.lpos, rightPos: r.rpos, tg: r.tg})
	g.opIDs = append(g.opIDs, o.ID)
	touch(g)
	r.g = g
	m.ops[o.ID] = r
	m.maxOp = max(m.maxOp, o.ID)
	// Blocks pack memberships one word per row.
	if r.lpos >= 64 || r.rpos >= 64 {
		m.wide++
	}
	return nil
}

// dropOp splices out operator id; its group goes, with its stored state,
// when no operator is left in it.
func (m *SeqMOp) dropOp(id int, touch func(*stateGroup)) {
	r := m.ops[id]
	g := r.g
	i := slices.Index(g.opIDs, id)
	g.ops, g.opIDs = slices.Delete(g.ops, i, i+1), slices.Delete(g.opIDs, i, i+1)
	touch(g)
	if len(g.ops) == 0 {
		if m.lefts[g.key.lport].drop(g, g.left) {
			m.lefts[g.key.lport] = nil
		}
		if m.rights[g.key.rport].drop(g, g.right) {
			m.rights[g.key.rport] = nil
		}
		delete(m.byKey, g.key)
		g.discardState()
	}
	m.in.release(r.lport)
	m.in.release(r.rport)
	m.out.release(r.tg.port)
	if r.lpos >= 64 || r.rpos >= 64 {
		m.wide--
	}
	delete(m.ops, id)
}

// newGroup creates and registers the state group of key k, whose first
// operator is o: the predicate is split into its AN-indexable right
// constant, its insertion-time left part and its AI-indexable equi-join
// conjunct.
func (m *SeqMOp) newGroup(o *core.Op, k groupKey) *stateGroup {
	g := &stateGroup{
		prefixEmitter: prefixEmitter{pool: m.pool},
		mu:            m.mu,
		key:           k,
		startArity:    o.In[0].Schema.Arity(),
		rightArity:    o.In[1].Schema.Arity(),
		filter:        o.Def.Filter2,
	}
	pred := o.Def.Pred2
	if a, c, res, isRC := expr.RightIndexableEq(pred); isRC {
		g.right = indexKey{true, a, c}
		pred = res
	}
	// Insertion-time left predicates are peeled off for ; only: a µ
	// state tuple mutates, so its left conjuncts stay in the residual.
	if !m.mu {
		pred = g.extractLeftPred(pred)
	}
	if la, ra, res, isEq := expr.EqJoinParts(pred); isEq {
		g.hasEq, g.lAttr, g.rAttr = true, la, ra
		g.hashStable = !m.mu || la < g.startArity
		if g.hashStable {
			g.hash = newHashIndex[*seqInst]()
		}
		pred = res
	}
	g.pred = pred
	m.byKey[k] = g
	for _, d := range []**dispatch{&m.lefts[k.lport], &m.rights[k.rport]} {
		if *d == nil {
			*d = &dispatch{}
		}
	}
	m.lefts[k.lport].add(g, g.left)
	m.rights[k.rport].add(g, g.right)
	return g
}

// portUses classifies the input ports: left tuples are stored as
// instances; right tuples only feed freshly built concatenations.
func (m *SeqMOp) portUses() []PortUse {
	uses := make([]PortUse, len(m.in.edges))
	for port, ld := range m.lefts {
		if ld != nil {
			uses[port] = PortStores
		}
	}
	return uses
}

// ReplayMember re-derives a freshly merged operator's view of the shared
// store of the group serving opID in m (see stateHolder.replayMember).
func ReplayMember(m MOp, opID, side, pos int, keep func(*stream.Tuple) bool) (int, error) {
	if sm, ok := m.(*SeqMOp); ok && sm.ops[opID] != nil {
		return sm.ops[opID].g.replayMember(side, pos, keep), nil
	}
	return NewStateRegistry([]MOp{m}).ReplayMember(opID, side, pos, keep)
}
