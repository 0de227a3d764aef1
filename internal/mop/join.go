package mop

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
)

// joinSide is one side of a shared symmetric window join: a FIFO buffer
// bounded by the group's maximum window, with an optional hash index on
// the equi-join attribute. Stored entries are the input tuples themselves;
// expiry runs in FIFO order, so an expiring tuple is always the head of its
// hash bucket and both structures are maintained without tombstones or
// per-entry allocations.
type joinSide struct {
	buf  []*stream.Tuple
	hash *hashIndex[*stream.Tuple] // nil when not equi-indexed
	attr int                       // indexed attribute
}

func (s *joinSide) insert(t *stream.Tuple) {
	s.buf = append(s.buf, t)
	if s.hash != nil {
		s.hash.add(t.Vals[s.attr], t)
	}
}

func (s *joinSide) expire(now, window int64) {
	i := 0
	for ; i < len(s.buf); i++ {
		t := s.buf[i]
		if window <= 0 || now-t.TS <= window {
			break
		}
		if s.hash != nil {
			s.hash.remove(t.Vals[s.attr], t)
		}
	}
	if i > 0 {
		if i*2 >= len(s.buf) {
			// Most of the buffer expired: copy the survivors down so the
			// backing array is reused instead of regrowing behind a moving
			// front.
			n := copy(s.buf, s.buf[i:])
			clear(s.buf[n:])
			s.buf = s.buf[:n]
		} else {
			s.buf = s.buf[i:]
		}
	}
}

// candidates returns the stored tuples matching probe value v (indexed) or
// the whole buffer (unindexed). Every returned tuple is live: expiry prunes
// buckets eagerly, so probes need no dead checks or bucket rewrites.
func (s *joinSide) candidates(v int64) []*stream.Tuple {
	if s.hash != nil {
		return s.hash.get(v)
	}
	return s.buf
}

// joinGroup is a set of join operators with the same join predicate
// reading the same pair of edges. Shared window join (s⨝, [12]): one
// shared state bounded by the maximum window; each operator filters
// matches by its own window on emission, as a window prefix. Precision
// sharing join (c⨝, [14]): the inputs are channels, the predicate is
// evaluated once per tuple pair, and output membership is derived from
// the input memberships.
type joinGroup struct {
	prefixEmitter
	pred      expr.Pred2
	hasEq     bool
	lAttr     int
	rAttr     int
	maxWindow int64 // 0 when any operator is unbounded
	unbounded bool
	left      joinSide
	right     joinSide
	// opIDs[i] is the plan operator ID behind ops[i] (co-sorted with ops);
	// live maintenance keys state migration on it.
	opIDs []int
}

// seal orders the operators for window-prefix emission, keeping opIDs
// aligned with ops.
func (g *joinGroup) seal() {
	if g.unbounded {
		g.maxWindow = 0
	}
	g.opIDs = permuteInts(g.opIDs, g.prefixEmitter.seal())
}

// JoinMOp is the windowed join m-op.
type JoinMOp struct {
	// portGroups[p] lists (group, side-is-left) pairs fed by input port p.
	portGroups [][]portGroup
	ce         *chanEmitter
	counted    countFlush
}

type portGroup struct {
	g      *joinGroup
	isLeft bool
}

func newJoinMOp(p *core.Physical, n *core.Node, pm *portMap, tp *stream.Pool) (*JoinMOp, error) {
	m := &JoinMOp{
		portGroups: make([][]portGroup, len(pm.inEdges)),
		ce:         newChanEmitter(len(pm.outEdges), tp),
	}
	type gkey struct {
		lport, rport int
		def          string
	}
	groups := make(map[gkey]*joinGroup)
	var order []*joinGroup
	for _, o := range n.Ops {
		lport, lpos := pm.inLoc(p, o.In[0])
		rport, rpos := pm.inLoc(p, o.In[1])
		if lport == rport {
			return nil, fmt.Errorf("join op %d reads both sides from one edge", o.ID)
		}
		k := gkey{lport: lport, rport: rport, def: o.Def.KeyModuloWindow()}
		g, ok := groups[k]
		if !ok {
			g = &joinGroup{pred: o.Def.Pred2, prefixEmitter: prefixEmitter{pool: tp}}
			if la, ra, res, isEq := expr.EqJoinParts(o.Def.Pred2); isEq {
				g.hasEq, g.lAttr, g.rAttr, g.pred = true, la, ra, res
				g.left.hash = newHashIndex[*stream.Tuple]()
				g.left.attr = la
				g.right.hash = newHashIndex[*stream.Tuple]()
				g.right.attr = ra
			}
			groups[k] = g
			order = append(order, g)
			m.portGroups[lport] = append(m.portGroups[lport], portGroup{g: g, isLeft: true})
			m.portGroups[rport] = append(m.portGroups[rport], portGroup{g: g, isLeft: false})
		}
		if o.Def.Window <= 0 {
			g.unbounded = true // one unbounded operator pins the whole store
		} else if o.Def.Window > g.maxWindow {
			g.maxWindow = o.Def.Window
		}
		g.ops = append(g.ops, windowOp{
			leftPos:  lpos,
			rightPos: rpos,
			window:   o.Def.Window,
			tg:       pm.outLoc(p, o.Out),
		})
		g.opIDs = append(g.opIDs, o.ID)
	}
	for _, g := range order {
		g.seal()
	}
	return m, nil
}

// Process implements MOp.
func (m *JoinMOp) Process(port int, t *stream.Tuple, emit Emit) {
	for _, pg := range m.portGroups[port] {
		g := pg.g
		g.left.expire(t.TS, g.maxWindow)
		g.right.expire(t.TS, g.maxWindow)
		var probe *joinSide
		var probeVal int64
		if pg.isLeft {
			g.left.insert(t)
			probe = &g.right
			if g.hasEq {
				probeVal = t.Vals[g.lAttr]
			}
		} else {
			g.right.insert(t)
			probe = &g.left
			if g.hasEq {
				probeVal = t.Vals[g.rAttr]
			}
		}
		for _, c := range probe.candidates(probeVal) {
			var l, r *stream.Tuple
			if pg.isLeft {
				l, r = t, c
			} else {
				l, r = c, t
			}
			if !g.pred.Eval2(l, r) {
				continue
			}
			g.match(l, r, l.Member, r.Member, t.TS-c.TS, t.TS, m.ce, emit)
		}
	}
}

// BindSinks implements PrefixMOp.
func (m *JoinMOp) BindSinks(s Sinks) bool {
	n := 0
	for _, pgs := range m.portGroups {
		for _, pg := range pgs {
			if pg.isLeft && pg.g.bind(s, &m.counted) {
				n++
			}
		}
	}
	m.counted.reserve(n)
	return n > 0
}

// FlushCounts implements PrefixMOp.
func (m *JoinMOp) FlushCounts() int64 { return m.counted.flushCounts() }

// ---------------------------------------------------------------------------
// State registry (uniform keyed-state holder, see registry.go)
// ---------------------------------------------------------------------------

// stateHolders implements the registry harvest for JoinMOp: each group
// registers once (via its left port entry).
func (m *JoinMOp) stateHolders() []stateHolder {
	var out []stateHolder
	for _, pgs := range m.portGroups {
		for _, pg := range pgs {
			if pg.isLeft {
				out = append(out, pg.g)
			}
		}
	}
	return out
}

func (g *joinGroup) stateOpIDs() []int { return g.opIDs }

func (g *joinGroup) stateSides() []int { return joinSideList }

var joinSideList = []int{0, 1}

func (g *joinGroup) stateKind() groupKind { return kindJoinState }

// adoptFrom moves a predecessor join group's window buffers and hash
// indexes wholesale. The index configuration (equi attributes) is
// definition-derived and identical by construction.
func (g *joinGroup) adoptFrom(old stateHolder) error {
	og, ok := old.(*joinGroup)
	if !ok {
		return fmt.Errorf("join group adopting %T state", old)
	}
	g.left, g.right = og.left, og.right
	return nil
}

// sideOf maps a side index to the group's stored side.
func (g *joinGroup) sideOf(side int) *joinSide {
	if side == 0 {
		return &g.left
	}
	return &g.right
}

// exportKeyed removes the selected stored tuples of one side. The FIFO
// buffer keeps its timestamp order (in-place filter); the hash index is
// pruned per removed tuple.
func (g *joinGroup) exportKeyed(side, keyAttr int, sel func(int64, int) bool) *StatePayload {
	s := g.sideOf(side)
	pl := &StatePayload{kind: kindJoinState, side: side}
	ord := make(map[int64]int)
	kept := s.buf[:0]
	for _, t := range s.buf {
		var key int64
		if keyAttr >= 0 && keyAttr < len(t.Vals) {
			key = t.Vals[keyAttr]
		}
		o := ord[key]
		ord[key] = o + 1
		if !sel(key, o) {
			kept = append(kept, t)
			continue
		}
		if s.hash != nil {
			s.hash.remove(t.Vals[s.attr], t)
		}
		pl.items = append(pl.items, StateItem{Key: key, TS: t.TS, Tuple: t})
	}
	n := len(kept)
	clear(s.buf[n:])
	s.buf = kept
	return pl
}

// importKeyed merges exported tuples into the side's buffer by timestamp
// and re-indexes them. Tuple contents are immutable and the Vals arrays
// may be shared across replicas; a copied import shallow-copies the tuple
// header, because a later channel remap rewrites the stored tuple's
// Member field in place per replica — a header shared by two replicas
// would be remapped twice.
func (g *joinGroup) importKeyed(pl *StatePayload, copied bool) error {
	if pl.kind != kindJoinState {
		return fmt.Errorf("join group importing %d-kind payload", pl.kind)
	}
	s := g.sideOf(pl.side)
	add := make([]*stream.Tuple, 0, len(pl.items))
	for _, it := range pl.items {
		t := it.Tuple
		if copied {
			t = &stream.Tuple{TS: t.TS, Vals: t.Vals, Member: t.Member}
		}
		add = append(add, t)
		if s.hash != nil {
			s.hash.add(t.Vals[s.attr], t)
		}
	}
	s.buf = mergeByTS(s.buf, add, func(t *stream.Tuple) int64 { return t.TS })
	return nil
}

// keyHistogram counts stored tuples per partition key.
func (g *joinGroup) keyHistogram(side, keyAttr int, h map[int64]int64) {
	s := g.sideOf(side)
	for _, t := range s.buf {
		if keyAttr >= 0 && keyAttr < len(t.Vals) {
			h[t.Vals[keyAttr]]++
		}
	}
}

// remapMemberships rewrites the memberships of one side's stored tuples
// through a channel position remap. The membership set is replaced (the
// remap's cache keeps sharing: the same tuple stored by several groups of
// this m-op passes through unchanged on the second visit); a tuple whose
// membership empties belonged only to scrubbed slots and is dropped.
func (g *joinGroup) remapMemberships(side int, rm *Remap) {
	s := g.sideOf(side)
	kept := s.buf[:0]
	for _, t := range s.buf {
		if t.Member == nil {
			kept = append(kept, t)
			continue
		}
		nm := rm.Apply(t.Member)
		if nm.Empty() {
			if s.hash != nil {
				s.hash.remove(t.Vals[s.attr], t)
			}
			continue
		}
		t.Member = nm
		kept = append(kept, t)
	}
	n := len(kept)
	clear(s.buf[n:])
	s.buf = kept
}

// replayMember grants a freshly merged join operator its view of one
// side's shared buffer: every stored tuple keep() accepts gains the
// operator's membership bit (copied set, shared sets stay untouched).
func (g *joinGroup) replayMember(side, pos int, keep func(*stream.Tuple) bool) int {
	s := g.sideOf(side)
	n := 0
	for _, t := range s.buf {
		if t.Member == nil || t.Member.Test(pos) {
			continue
		}
		if !keep(t) {
			continue
		}
		nm := t.Member.Clone()
		nm.Set(pos)
		t.Member = nm
		n++
	}
	return n
}

// discardState: join groups own no pooled state (stored tuples belong to
// the stream).
func (g *joinGroup) discardState() {}

// concatTuples builds the joined/sequenced output tuple l ++ r at time ts,
// drawn from the engine's tuple pool.
func concatTuples(tp *stream.Pool, l, r *stream.Tuple, ts int64) *stream.Tuple {
	out := tp.Get(ts, len(l.Vals)+len(r.Vals))
	n := copy(out.Vals, l.Vals)
	copy(out.Vals[n:], r.Vals)
	return out
}
