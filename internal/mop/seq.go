package mop

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
)

// seqInst is one stored automaton instance: for ; it is the buffered left
// tuple awaiting a match; for µ it additionally tracks the last event bound
// into the pattern. state is the tuple edge predicates evaluate against —
// the left tuple itself for ;, and start ++ last for µ (§4.2). A row stored
// from a block is a pooled copy the instance owns (owned) and recycles.
type seqInst struct {
	start  *stream.Tuple
	state  *stream.Tuple
	member *bitset.Set
	dead   bool
	owned  bool
}

// stateGroup is a set of ;/µ operators sharing stored state: same left
// edge, same right edge, same definition modulo duration window. One
// instance store serves every operator; each operator filters emissions by
// its own window (the s⨝-style window sharing applied to sequence
// operators, emitted as a window prefix) and, in channel mode (c;/cµ,
// §4.4), by instance membership.
type stateGroup struct {
	prefixEmitter
	mu bool
	// key and the FR and AN constants say where the group is registered;
	// resealed marks it queued for resealing within a splice.
	key         groupKey
	left, right indexKey
	resealed    bool

	pred   expr.Pred2 // residual predicate over (state, event)
	filter expr.Pred2 // µ filter-edge predicate θf

	// AI index [7,8]: instances hashed on the left attribute of an
	// equi-join conjunct, probed with the right attribute.
	hasEq        bool
	lAttr, rAttr int
	hashStable   bool // lAttr refers to the start part (µ) or any attr (;)

	// Insertion-time (FR-style) unary predicate on the arriving left tuple.
	leftPred expr.Pred

	startArity, rightArity int
	maxWindow              int64 // 0 when any operator is unbounded
	unbounded              bool

	insts     []*seqInst
	hash      *hashIndex[*seqInst]
	deadCount int
	// free recycles instance headers (and, for µ, their pooled state
	// tuples) reclaimed by expire/maybeCompact, so steady-state insertion
	// allocates nothing once the store has warmed up.
	free []*seqInst
	dead []*seqInst // scratch: dead instances collected during compaction

	// opIDs[i] is the plan operator ID behind ops[i] (co-sorted with ops);
	// live maintenance keys state migration on it.
	opIDs []int
	// posOps indexes ops by their left-channel membership position when
	// every op reads a channel stream, so an emission visits only the
	// operators an instance can belong to (O(|membership|), not O(|ops|)).
	posOps [][]int
	// leftMask is the union of the ops' left membership positions; a
	// channel tuple is stored only if its membership intersects the mask
	// (the decoding step of §3.1 applied at insertion time).
	leftMask *bitset.Set
}

// seal orders the operators for window-prefix emission (keeping opIDs
// aligned), derives the store's expiry horizon and builds the
// membership→operator index; it runs again whenever a splice changes the
// group's operators.
func (g *stateGroup) seal() {
	g.unbounded, g.maxWindow = false, 0
	for _, o := range g.ops {
		if o.window <= 0 {
			g.unbounded = true // one unbounded operator pins the whole store
		} else if o.window > g.maxWindow {
			g.maxWindow = o.window
		}
	}
	if g.unbounded {
		g.maxWindow = 0
	}
	g.opIDs = permuteInts(g.opIDs, g.prefixEmitter.seal())
	g.posOps, g.leftMask = nil, nil
	maxPos := 0
	for i := range g.ops {
		if g.ops[i].leftPos < 0 {
			return
		}
		maxPos = max(maxPos, g.ops[i].leftPos)
	}
	g.posOps = make([][]int, maxPos+1)
	g.leftMask = bitset.New(maxPos + 1)
	for i := range g.ops {
		p := g.ops[i].leftPos
		g.posOps[p] = append(g.posOps[p], i)
		g.leftMask.Set(p)
	}
}

// groupIndex is one per-attribute index from constants to groups, dense
// direct-mapped when the constants allow (see constIndex); n counts the
// groups registered.
type groupIndex struct {
	attr    int
	n       int
	byConst constIndex[*stateGroup]
}

// dispatch routes an incoming tuple to candidate groups: an index maps
// equality constants of the tuple to groups (FR on the left, §4.3; AN on
// the right [7,8]); groups without an indexable constant are scanned
// sequentially.
type dispatch struct {
	idx  []groupIndex
	rest []*stateGroup
}

// add registers g under k.
func (d *dispatch) add(g *stateGroup, k indexKey) {
	if !k.on {
		d.rest = append(d.rest, g)
		return
	}
	i := slices.IndexFunc(d.idx, func(x groupIndex) bool { return x.attr == k.attr })
	if i < 0 {
		d.idx = append(d.idx, groupIndex{attr: k.attr})
		i = len(d.idx) - 1
	}
	d.idx[i].n++
	d.idx[i].byConst.add(k.c, g)
}

// drop unregisters g from k and reports whether d is left empty.
func (d *dispatch) drop(g *stateGroup, k indexKey) bool {
	if !k.on {
		d.rest = slices.DeleteFunc(d.rest, func(x *stateGroup) bool { return x == g })
	} else if i := slices.IndexFunc(d.idx, func(x groupIndex) bool { return x.attr == k.attr }); i >= 0 {
		d.idx[i].byConst.remove(k.c, g)
		if d.idx[i].n--; d.idx[i].n == 0 {
			d.idx = slices.Delete(d.idx, i, i+1)
		}
	}
	return len(d.idx) == 0 && len(d.rest) == 0
}

// seal freezes the constant lookup tables for probing.
func (d *dispatch) seal() {
	for i := range d.idx {
		d.idx[i].byConst.seal()
	}
}

// SeqMOp executes a set of Cayuga sequence (;) or iteration (µ) operators.
// It is built by splicing its node's operators into an empty m-op, and
// live maintenance splices the operators a node gains and loses into the
// running m-op (splice.go), so its stores, hash indexes and dispatch
// tables stay in place.
type SeqMOp struct {
	mu bool
	// lefts and rights are indexed by input port (the FR and AN dispatch);
	// an entry is nil when no operator reads the port on that side.
	lefts   []*dispatch
	rights  []*dispatch
	ce      *chanEmitter
	pool    *stream.Pool
	counted countFlush

	// Vectorized dispatch (seq_block.go). vec holds while every membership
	// position is within the inline word (wide counts the operators past
	// it). probe is the scratch tuple the block kernels materialize one row
	// at a time into.
	vec   bool
	wide  int
	probe stream.Tuple

	// The splice state: the port layout, the groups by key, and every
	// operator's wiring as spliced in.
	in, out portSet
	byKey   map[groupKey]*stateGroup
	ops     map[int]*seqOp
	last    []*core.Op // the node's operators at the last splice
	maxOp   int        // the largest operator ID the m-op has run
}

// indexKey is the equality constant a group is dispatched under, when it
// has one: attribute attr of an arriving tuple equals c.
type indexKey struct {
	on   bool
	attr int
	c    int64
}

// extractLeftPred removes Left(...) conjuncts from pred, folding them into
// g.leftPred (evaluated once when a left tuple is inserted) and recording
// an FR-indexable constant in g.left if present.
func (g *stateGroup) extractLeftPred(pred expr.Pred2) expr.Pred2 {
	var leftParts []expr.Pred
	var rest []expr.Pred2
	parts := []expr.Pred2{pred}
	if a, ok := pred.(expr.And2); ok {
		parts = a.Parts
	}
	for _, part := range parts {
		if lp, ok := part.(expr.Left); ok {
			leftParts = append(leftParts, lp.P)
			continue
		}
		rest = append(rest, part)
	}
	if len(leftParts) == 0 {
		return pred
	}
	lp := expr.NewAnd(leftParts...)
	if attr, c, res, ok := expr.IndexableEq(lp); ok {
		g.left = indexKey{true, attr, c}
		lp = res
	}
	if _, isTrue := lp.(expr.True); !isTrue {
		g.leftPred = lp
	}
	return expr.NewAnd2(rest...)
}

// BindSinks implements PrefixMOp.
func (m *SeqMOp) BindSinks(s Sinks) bool {
	n := 0
	m.forEachGroup(func(g *stateGroup) {
		if g.bind(s, &m.counted) {
			n++
		}
	})
	m.counted.reserve(n)
	return n > 0
}

// FlushCounts implements PrefixMOp.
func (m *SeqMOp) FlushCounts() int64 { return m.counted.flushCounts() }

// Process implements MOp.
func (m *SeqMOp) Process(port int, t *stream.Tuple, emit Emit) {
	if ld := m.lefts[port]; ld != nil {
		m.processLeft(ld, t, false)
	}
	if rd := m.rights[port]; rd != nil {
		m.processRight(rd, t, emit)
	}
}

// processLeft inserts the arriving tuple as a new instance into every
// group whose insertion predicate it satisfies; with own each instance
// stores a pooled copy of t that it owns instead of t itself.
func (m *SeqMOp) processLeft(ld *dispatch, t *stream.Tuple, own bool) {
	for i := range ld.idx {
		idx := &ld.idx[i]
		if idx.attr >= len(t.Vals) {
			continue
		}
		for _, g := range idx.byConst.get(t.Vals[idx.attr]) {
			g.insert(t, own)
		}
	}
	for _, g := range ld.rest {
		g.insert(t, own)
	}
}

// takeInst pops a recycled instance header or allocates a fresh one.
func (g *stateGroup) takeInst() *seqInst {
	if n := len(g.free); n > 0 {
		inst := g.free[n-1]
		g.free = g.free[:n-1]
		return inst
	}
	return &seqInst{}
}

// recycleInst returns a dead, unreferenced instance to the free list, and
// its private tuples to the engine's tuple pool: the µ state tuple, which
// the group builds, and an owned start.
func (g *stateGroup) recycleInst(inst *seqInst) {
	if g.mu && inst.state != nil {
		g.pool.Put(inst.state)
	}
	if inst.owned {
		g.pool.Put(inst.start)
	}
	*inst = seqInst{}
	g.free = append(g.free, inst)
}

// insert stores t as a new instance if it passes the insertion mask and
// predicate: t itself, or with own a pooled copy that keeps t's interned
// membership.
func (g *stateGroup) insert(t *stream.Tuple, own bool) {
	if g.leftMask != nil && !t.Member.Intersects(g.leftMask) {
		return
	}
	if g.leftPred != nil && !g.leftPred.Eval(t) {
		return
	}
	if own {
		c := g.pool.Get(t.TS, len(t.Vals))
		copy(c.Vals, t.Vals)
		c.Member, t = t.Member, c
	}
	inst := g.takeInst()
	inst.start, inst.state, inst.owned = t, t, own
	if t.Member != nil {
		inst.member = t.Member.Clone()
	}
	if g.mu {
		// state = start ++ last, with last initialised from the start
		// tuple (padded/truncated to the right schema's arity). The state
		// tuple is pooled; padding gaps must be zeroed explicitly.
		st := g.pool.Get(t.TS, g.startArity+g.rightArity)
		n := copy(st.Vals, t.Vals)
		for i := n; i < g.startArity; i++ {
			st.Vals[i] = 0
		}
		for i := 0; i < g.rightArity; i++ {
			if i < len(t.Vals) {
				st.Vals[g.startArity+i] = t.Vals[i]
			} else {
				st.Vals[g.startArity+i] = 0
			}
		}
		inst.state = st
	}
	g.insts = append(g.insts, inst)
	if g.hash != nil {
		g.hash.add(inst.state.Vals[g.lAttr], inst)
	}
}

// processRight matches the arriving tuple against stored instances of all
// candidate groups: those found via the AN index plus the unindexed rest.
func (m *SeqMOp) processRight(rd *dispatch, t *stream.Tuple, emit Emit) {
	for i := range rd.idx {
		idx := &rd.idx[i]
		if idx.attr >= len(t.Vals) {
			continue
		}
		for _, g := range idx.byConst.get(t.Vals[idx.attr]) {
			m.matchGroup(g, t, emit)
		}
	}
	for _, g := range rd.rest {
		m.matchGroup(g, t, emit)
	}
}

func (m *SeqMOp) matchGroup(g *stateGroup, t *stream.Tuple, emit Emit) {
	g.expire(t.TS)
	if g.hash != nil {
		// Dead instances linger in buckets until compaction or expiry
		// reclaims them; probes skip them without rewriting the bucket.
		bucket := g.hash.get(t.Vals[g.rAttr])
		n := len(bucket)
		for i := 0; i < n; i++ {
			if inst := bucket[i]; !inst.dead {
				g.matchInst(inst, t, m.ce, emit)
			}
		}
	} else {
		n := len(g.insts)
		for i := 0; i < n; i++ {
			inst := g.insts[i]
			if inst.dead {
				continue
			}
			if g.hasEq && inst.state.Vals[g.lAttr] != t.Vals[g.rAttr] {
				// Unstable-hash µ equi-join: evaluated inline.
				continue
			}
			g.matchInst(inst, t, m.ce, emit)
		}
	}
	g.maybeCompact()
}

// matchInst applies the group's edge predicates to one instance.
func (g *stateGroup) matchInst(inst *seqInst, t *stream.Tuple, ce *chanEmitter, emit Emit) {
	if g.hash != nil && g.hasEq && inst.state.Vals[g.lAttr] != t.Vals[g.rAttr] {
		return
	}
	matched := g.pred.Eval2(inst.state, t)
	if !g.mu {
		if !matched {
			return
		}
		g.emitMatch(inst, t, ce, emit)
		// Cayuga ; deletes a state tuple once matched (§5.2).
		inst.dead = true
		g.deadCount++
		return
	}
	// µ: non-deterministic traversal of filter and rebind edges (§4.2).
	filterOK := g.filter != nil && g.filter.Eval2(inst.state, t)
	switch {
	case matched && filterOK:
		// Duplicate: one copy stays at the state unchanged, one rebinds.
		// Clone draws from the engine's tuple pool, reusing buffers of
		// recycled instances. The two die at different times, so an owned
		// start is copied, not shared.
		stay := g.takeInst()
		stay.start, stay.state, stay.member, stay.owned = inst.start, g.pool.Clone(inst.state), inst.member, inst.owned
		if inst.owned {
			stay.start = g.pool.Clone(inst.start)
		}
		g.insts = append(g.insts, stay)
		if g.hash != nil {
			g.hash.add(stay.state.Vals[g.lAttr], stay)
		}
		g.rebind(inst, t)
		g.emitMatch(inst, t, ce, emit)
	case matched:
		g.rebind(inst, t)
		g.emitMatch(inst, t, ce, emit)
	case filterOK:
		// Filter edge: instance remains unchanged.
	default:
		// No edge predicate satisfied: the instance is deleted.
		inst.dead = true
		g.deadCount++
	}
}

// rebind folds the matched event into the instance's "last" slot.
func (g *stateGroup) rebind(inst *seqInst, t *stream.Tuple) {
	copy(inst.state.Vals[g.startArity:], t.Vals[:g.rightArity])
}

// emitMatch emits start ++ event to every operator of the group whose
// window covers the instance age and whose memberships include the pair.
// In channel mode only the operators of the instance's streams are
// visited; otherwise the operators form a window prefix.
func (g *stateGroup) emitMatch(inst *seqInst, t *stream.Tuple, ce *chanEmitter, emit Emit) {
	age := t.TS - inst.start.TS
	if g.posOps == nil || inst.member == nil {
		g.match(inst.start, t, inst.member, t.Member, age, t.TS, ce, emit)
		return
	}
	inst.member.ForEach(func(pos int) bool {
		if pos < len(g.posOps) {
			for _, i := range g.posOps[pos] {
				if o := &g.ops[i]; o.window <= 0 || age <= o.window {
					g.collect(o, inst.member, t.Member, ce)
				}
			}
		}
		return true
	})
	g.send(inst.start, t, t.TS, ce, emit)
}

// expire deletes instances older than the group's maximum window and
// recycles them into the free list. With an AI hash each instance is also
// pruned from its bucket (keyed on the stable left attribute), so expiry
// reclaims instance headers instead of leaking them to the garbage
// collector behind lazily-pruned buckets.
func (g *stateGroup) expire(now int64) {
	if g.maxWindow <= 0 {
		return
	}
	i := 0
	for ; i < len(g.insts); i++ {
		inst := g.insts[i]
		if now-inst.start.TS <= g.maxWindow {
			break
		}
		if inst.dead {
			// Killed by a match earlier; it may still sit in its bucket.
			g.deadCount--
		}
		if g.hash != nil {
			g.hash.remove(inst.state.Vals[g.lAttr], inst)
		}
		g.recycleInst(inst)
	}
	if i > 0 {
		if i*2 >= len(g.insts) {
			// Most of the store expired: copy the survivors down so the
			// backing array is reused by subsequent appends rather than
			// regrowing behind a moving front.
			n := copy(g.insts, g.insts[i:])
			clear(g.insts[n:])
			g.insts = g.insts[:n]
		} else {
			g.insts = g.insts[i:]
		}
	}
}

// maybeCompact drops tombstones once they dominate the store, recycling
// them into the instance free list. Recycling is deferred until after the
// hash buckets are pruned so no bucket can still reference a reused header.
func (g *stateGroup) maybeCompact() {
	if g.deadCount < 32 || g.deadCount*2 < len(g.insts) {
		return
	}
	live := g.insts[:0]
	g.dead = g.dead[:0]
	for _, inst := range g.insts {
		if !inst.dead {
			live = append(live, inst)
		} else {
			g.dead = append(g.dead, inst)
		}
	}
	g.insts = live
	g.deadCount = 0
	if g.hash != nil {
		g.hash.sweep(func(inst *seqInst) bool { return !inst.dead })
	}
	for _, inst := range g.dead {
		g.recycleInst(inst)
	}
	g.dead = g.dead[:0]
}

// ---------------------------------------------------------------------------
// State registry (uniform keyed-state holder, see registry.go)
// ---------------------------------------------------------------------------

// groups returns the m-op's state groups (each exactly once).
func (m *SeqMOp) groups() []*stateGroup {
	var out []*stateGroup
	m.forEachGroup(func(g *stateGroup) { out = append(out, g) })
	return out
}

// forEachGroup visits the m-op's state groups (each exactly once).
func (m *SeqMOp) forEachGroup(fn func(g *stateGroup)) {
	for _, ld := range m.lefts {
		if ld == nil {
			continue
		}
		for _, g := range ld.rest {
			fn(g)
		}
		for i := range ld.idx {
			ld.idx[i].byConst.forEach(fn)
		}
	}
}

// stateHolders implements the registry harvest for SeqMOp.
func (m *SeqMOp) stateHolders() []stateHolder {
	gs := m.groups()
	out := make([]stateHolder, len(gs))
	for i, g := range gs {
		out[i] = g
	}
	return out
}

func (g *stateGroup) stateOpIDs() []int { return g.opIDs }

func (g *stateGroup) stateSides() []int { return seqSideList }

var seqSideList = []int{0} // right tuples only probe; instances store left

func (g *stateGroup) stateKind() groupKind {
	if g.mu {
		return kindMuState
	}
	return kindSeqState
}

// adoptFrom moves a predecessor group's instance store wholesale.
func (g *stateGroup) adoptFrom(old stateHolder) error {
	og, ok := old.(*stateGroup)
	if !ok {
		return fmt.Errorf("seq group adopting %T state", old)
	}
	if (g.hash == nil) != (og.hash == nil) {
		return fmt.Errorf("seq group changed AI-index shape during live delta")
	}
	g.insts, g.hash, g.deadCount = og.insts, og.hash, og.deadCount
	g.free, g.dead = og.free, og.dead
	return nil
}

// exportKeyed removes the selected live instances. Dead instances
// (tombstones awaiting compaction) are dropped outright — they carry no
// state, their hash-bucket slots are pruned, and their headers recycle —
// and deadCount is reset to match, so the maybeCompact ratio reflects the
// post-export store instead of firing eagerly against a shrunken one. The
// instance store keeps its start-timestamp order (in-place filter);
// exported instance headers are recycled, while start/state tuples and
// memberships travel: the payload takes over an owned start uncopied.
// Dropping the dead is replica-deterministic: dead flags agree across
// replicas holding identical (replicated) stores.
func (g *stateGroup) exportKeyed(side, keyAttr int, sel func(int64, int) bool) *StatePayload {
	if side != 0 {
		return nil
	}
	pl := &StatePayload{kind: g.stateKind(), side: side}
	ord := make(map[int64]int)
	kept := g.insts[:0]
	for _, inst := range g.insts {
		if inst.dead {
			if g.hash != nil {
				g.hash.remove(inst.state.Vals[g.lAttr], inst)
			}
			g.recycleInst(inst)
			continue
		}
		var key int64
		if keyAttr >= 0 && keyAttr < len(inst.start.Vals) {
			key = inst.start.Vals[keyAttr]
		}
		o := ord[key]
		ord[key] = o + 1
		if !sel(key, o) {
			kept = append(kept, inst)
			continue
		}
		if g.hash != nil {
			g.hash.remove(inst.state.Vals[g.lAttr], inst)
		}
		pl.items = append(pl.items, StateItem{
			Key: key, TS: inst.start.TS,
			Start: inst.start, State: inst.state, Member: inst.member,
		})
		*inst = seqInst{}
		g.free = append(g.free, inst)
	}
	n := len(kept)
	clear(g.insts[n:])
	g.insts = kept
	g.deadCount = 0
	return pl
}

// importKeyed merges exported instances into the store by start timestamp
// and re-indexes them. Start tuples and memberships are immutable and may
// be shared, so an imported instance never owns its start; µ state tuples
// are instance-private and pool-owned, so a copied import deep-copies them
// into this engine's pool.
func (g *stateGroup) importKeyed(pl *StatePayload, copied bool) error {
	if pl.kind != g.stateKind() {
		return fmt.Errorf("seq group importing %d-kind payload", pl.kind)
	}
	add := make([]*seqInst, 0, len(pl.items))
	for _, it := range pl.items {
		inst := g.takeInst()
		inst.start = it.Start
		st := it.State
		if g.mu && copied {
			st = g.pool.Clone(st)
		}
		inst.state = st
		inst.member = it.Member
		if g.hash != nil {
			g.hash.add(st.Vals[g.lAttr], inst)
		}
		add = append(add, inst)
	}
	g.insts = mergeByTS(g.insts, add, func(i *seqInst) int64 { return i.start.TS })
	return nil
}

// keyHistogram counts live stored instances per partition key.
func (g *stateGroup) keyHistogram(side, keyAttr int, h map[int64]int64) {
	if side != 0 {
		return
	}
	for _, inst := range g.insts {
		if inst.dead {
			continue
		}
		if keyAttr >= 0 && keyAttr < len(inst.start.Vals) {
			h[inst.start.Vals[keyAttr]]++
		}
	}
}

// remapMemberships rewrites stored instance memberships through a channel
// position remap. An instance whose membership becomes empty belonged only
// to scrubbed (tombstoned or reused) slots: no surviving operator can ever
// emit it, so it is dropped and recycled. Memberships are replaced via the
// remap's cache — a µ duplicate pair sharing one set stays shared, and
// sets shared across engine replicas (replicated imports) are never
// mutated in place.
func (g *stateGroup) remapMemberships(side int, rm *Remap) {
	if side != 0 {
		return
	}
	kept := g.insts[:0]
	for _, inst := range g.insts {
		if inst.dead || inst.member == nil {
			kept = append(kept, inst)
			continue
		}
		nm := rm.Apply(inst.member)
		if nm.Empty() {
			if g.hash != nil {
				g.hash.remove(inst.state.Vals[g.lAttr], inst)
			}
			g.recycleInst(inst)
			continue
		}
		inst.member = nm
		kept = append(kept, inst)
	}
	n := len(kept)
	clear(g.insts[n:])
	g.insts = kept
}

// replayMember grants a freshly merged operator (membership position pos)
// its view of the shared instance store: every live stored instance whose
// start tuple keep() accepts gains bit pos, so the operator's first probe
// sees the full retained window. Memberships are copied, not mutated (they
// may be shared with µ duplicates or peer replicas).
func (g *stateGroup) replayMember(side, pos int, keep func(*stream.Tuple) bool) int {
	if side != 0 {
		return 0
	}
	n := 0
	for _, inst := range g.insts {
		if inst.dead || inst.member == nil || inst.member.Test(pos) {
			continue
		}
		if !keep(inst.start) {
			continue
		}
		nm := inst.member.Clone()
		nm.Set(pos)
		inst.member = nm
		n++
	}
	return n
}

// discardState releases group-owned pooled state: the µ state tuples and
// owned starts of the stored instances (see recycleInst).
func (g *stateGroup) discardState() {
	for _, inst := range g.insts {
		g.recycleInst(inst)
	}
	g.insts = nil
}

// Size reports the number of live stored instances (for tests).
//
//rumor:allow deadexport test instrument: block and row tests compare stored instance counts
func (m *SeqMOp) Size() int {
	n := 0
	for _, g := range m.groups() {
		for _, inst := range g.insts {
			if !inst.dead {
				n++
			}
		}
	}
	return n
}

// Compile-time interface checks.
var (
	_ MOp = (*SeqMOp)(nil)
	_ MOp = (*SelectMOp)(nil)
	_ MOp = (*ProjectMOp)(nil)
	_ MOp = (*AggMOp)(nil)
	_ MOp = (*JoinMOp)(nil)

	_ BatchMOp = (*SeqMOp)(nil)
	_ BatchMOp = (*SelectMOp)(nil)

	_ PrefixMOp = (*SeqMOp)(nil)
	_ PrefixMOp = (*JoinMOp)(nil)
)
