package mop

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/stream"
)

// aggSlot is the running aggregate of one window over one key's in-window
// entries.
type aggSlot struct {
	sum    int64
	count  int64
	counts map[int64]int64 // value multiset, kept for min/max only
}

func (s *aggSlot) add(v int64, multiset bool) {
	s.sum += v
	s.count++
	if multiset {
		if s.counts == nil {
			s.counts = make(map[int64]int64)
		}
		s.counts[v]++
	}
}

func (s *aggSlot) remove(v int64) {
	s.sum -= v
	s.count--
	if s.counts != nil {
		if s.counts[v] <= 1 {
			delete(s.counts, v)
		} else {
			s.counts[v]--
		}
	}
}

// value computes the aggregate. Avg uses integer division (attribute
// values are integers throughout the benchmark schema, §5.1). Min/max scan
// the value multiset; the benchmark domains are small (Table 3).
func (s *aggSlot) value(fn core.AggFn) int64 {
	switch fn {
	case core.AggSum:
		return s.sum
	case core.AggCount:
		return s.count
	case core.AggAvg:
		if s.count == 0 {
			return 0
		}
		return s.sum / s.count
	case core.AggMin, core.AggMax:
		first := true
		var ext int64
		for v := range s.counts {
			if first {
				ext = v
				first = false
				continue
			}
			if (fn == core.AggMin && v < ext) || (fn == core.AggMax && v > ext) {
				ext = v
			}
		}
		return ext
	}
	return 0
}

// keyState is the state of one group key within one fragment of a family:
// the interned group key, the number of log entries that reference it, and
// one running slot per window of the family.
type keyState struct {
	group string
	frag  *fragState
	live  int
	slots []aggSlot
}

// fragState is one membership fragment of a family: the key its membership
// encodes (plain mode has one fragment, with key "" and no membership) and
// its group keys.
type fragState struct {
	key     string
	member  *bitset.Set
	byGroup map[string]*keyState
}

// aggEntry is one input contribution in a family's log.
type aggEntry struct {
	ts  int64
	ks  *keyState
	val int64
}

// aggWindow is one distinct window length of a family and the operators
// it serves. log[cur:] is inside the window as of the last expiry; each of
// those entries is counted in its key's slot for this window.
type aggWindow struct {
	length int64 // 0 is unbounded
	cur    int
	ops    []selOp
}

// aggFamily is a set of aggregation operators reading the same input port
// whose definitions are equal up to the window: shared aggregate evaluation
// (sα, [22]) across window lengths, as s⨝ shares one join store. One
// timestamp-ordered entry log, bounded by the largest window, serves every
// window; each window keeps an expiry cursor into it, and each key keeps
// one running slot per window. A tuple costs one key lookup and one log
// append, then a cursor advance, a slot update and an output per window.
//
// Channel mode implements shared fragment aggregation (cα, [15]) on the
// same log: keys are kept per (membership fragment, group key), and
// operator i's answer combines the slots of every fragment containing i,
// so maintenance costs one fragment update per tuple instead of one update
// per query. Plain mode is the one-fragment case.
type aggFamily struct {
	fn       core.AggFn
	attr     int
	groupBy  []int
	channel  bool
	multiset bool // fn needs the value multiset (min/max)

	windows []aggWindow
	// opIDs are the plan operator IDs the family serves; live maintenance
	// uses them to re-attach the family's state after re-lowering.
	opIDs []int

	log   []aggEntry            // timestamp-ordered (input is timestamp-ordered)
	plain *fragState            // plain mode: the only fragment
	frags map[string]*fragState // channel mode: fragment key → fragment
	free  []*keyState           // forgotten keys, slots all empty, for reuse

	pool *stream.Pool // engine tuple pool for output tuples

	kbuf     []byte  // scratch for group key bytes
	fbuf     []byte  // scratch for fragment key bytes
	combined aggSlot // scratch for channel-mode combination
}

// AggMOp is the sliding-window aggregation m-op.
type AggMOp struct {
	ports [][]*aggFamily
	ce    *chanEmitter
}

func newAggMOp(p *core.Physical, n *core.Node, pm *portMap, tp *stream.Pool) (*AggMOp, error) {
	m := &AggMOp{
		ports: make([][]*aggFamily, len(pm.inEdges)),
		ce:    newChanEmitter(len(pm.outEdges), tp),
	}
	type fkey struct {
		port int
		def  string
	}
	families := make(map[fkey]*aggFamily)
	for _, o := range n.Ops {
		port, pos := pm.inLoc(p, o.In[0])
		k := fkey{port: port, def: o.Def.KeyModuloWindow()}
		f, ok := families[k]
		if !ok {
			f = &aggFamily{
				fn:       o.Def.Agg,
				attr:     o.Def.AggAttr,
				groupBy:  o.Def.GroupBy,
				channel:  pos >= 0, // every op of a port reads the same edge
				multiset: o.Def.Agg == core.AggMin || o.Def.Agg == core.AggMax,
				pool:     tp,
			}
			if f.channel {
				f.frags = make(map[string]*fragState)
			} else {
				f.plain = &fragState{byGroup: make(map[string]*keyState)}
			}
			families[k] = f
			m.ports[port] = append(m.ports[port], f)
		}
		w := 0
		for w < len(f.windows) && f.windows[w].length != o.Def.Window {
			w++
		}
		if w == len(f.windows) {
			f.windows = append(f.windows, aggWindow{length: o.Def.Window})
		}
		f.windows[w].ops = append(f.windows[w].ops, selOp{inPos: pos, tg: pm.outLoc(p, o.Out)})
		f.opIDs = append(f.opIDs, o.ID)
	}
	return m, nil
}

// appendGroupKey renders the group-by attribute values of t into b. The
// resulting bytes are used for map probes directly (the compiler elides the
// string conversion in map index expressions), so the common lookup path
// allocates nothing.
func (f *aggFamily) appendGroupKey(b []byte, t *stream.Tuple) []byte {
	for i, a := range f.groupBy {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, t.Vals[a], 10)
	}
	return b
}

// newFrag registers a channel-mode fragment.
func (f *aggFamily) newFrag(key string, member *bitset.Set) *fragState {
	fs := &fragState{key: key, member: member, byGroup: make(map[string]*keyState)}
	f.frags[key] = fs
	return fs
}

// keyIn returns fragment fs's state for group, registering an empty one
// (a forgotten key's, when there is one).
func (f *aggFamily) keyIn(fs *fragState, group string) *keyState {
	ks := fs.byGroup[group]
	if ks != nil {
		return ks
	}
	if n := len(f.free); n > 0 {
		ks = f.free[n-1]
		f.free = f.free[:n-1]
		ks.group, ks.frag = group, fs
	} else {
		ks = &keyState{group: group, frag: fs, slots: make([]aggSlot, len(f.windows))}
	}
	fs.byGroup[group] = ks
	return ks
}

// forget unregisters a key no log entry references any more, and its
// fragment once that holds no key. Every entry of the key has left every
// window, so its slots are empty and it goes to the free list as is.
func (f *aggFamily) forget(ks *keyState) {
	fs := ks.frag
	delete(fs.byGroup, ks.group)
	if f.channel && len(fs.byGroup) == 0 {
		delete(f.frags, fs.key)
	}
	ks.group, ks.frag = "", nil
	f.free = append(f.free, ks)
}

// expire advances every window's cursor past the entries that left it at
// time now, then trims the log. A tuple with timestamp e.ts is in the
// window of a tuple at now iff now - e.ts < window; an unbounded window
// expires nothing (and so keeps the whole log).
func (f *aggFamily) expire(now int64) {
	for i := range f.windows {
		w := &f.windows[i]
		if w.length <= 0 {
			continue
		}
		for ; w.cur < len(f.log); w.cur++ {
			e := &f.log[w.cur]
			if now-e.ts < w.length {
				break
			}
			e.ks.slots[i].remove(e.val)
		}
	}
	f.trim()
}

// trim drops the log prefix every window has left (the entries before the
// smallest cursor, which is the largest window's) and forgets the keys no
// remaining entry references.
func (f *aggFamily) trim() {
	n := len(f.log)
	for i := range f.windows {
		n = min(n, f.windows[i].cur)
	}
	if n == 0 {
		return
	}
	for i := range f.log[:n] {
		ks := f.log[i].ks
		if ks.live--; ks.live == 0 {
			f.forget(ks)
		}
	}
	if n*2 >= len(f.log) {
		// Most of the log left: copy the survivors down so the backing
		// array is reused.
		k := copy(f.log, f.log[n:])
		clear(f.log[k:])
		f.log = f.log[:k]
	} else {
		clear(f.log[:n])
		f.log = f.log[n:]
	}
	for i := range f.windows {
		f.windows[i].cur -= n
	}
}

// reslot recomputes every key's entry count and window slots from the log
// (window i counts log[cur_i:]) and rebuilds the fragment and key indexes
// from the keys the log references: the one path by which state moved,
// re-keyed or re-windowed outside Process becomes consistent again.
func (f *aggFamily) reslot() {
	for _, e := range f.log {
		ks := e.ks
		ks.live = 0
		if len(ks.slots) == len(f.windows) {
			clear(ks.slots)
		} else {
			ks.slots = make([]aggSlot, len(f.windows))
		}
		ks.frag.byGroup = nil
	}
	if f.channel {
		f.frags = make(map[string]*fragState)
	} else {
		f.plain.byGroup = make(map[string]*keyState)
	}
	for k, e := range f.log {
		ks := e.ks
		if fs := ks.frag; fs.byGroup == nil { // channel mode: first entry of the fragment
			fs.byGroup = make(map[string]*keyState)
			f.frags[fs.key] = fs
		}
		if ks.live == 0 {
			ks.frag.byGroup[ks.group] = ks
		}
		ks.live++
		for i := range f.windows {
			if k >= f.windows[i].cur {
				ks.slots[i].add(e.val, f.multiset)
			}
		}
	}
}

// filterLog keeps the log entries keep accepts (keep may re-point an
// entry's key), moves every cursor to the same position among the
// survivors, and reslots.
func (f *aggFamily) filterLog(keep func(e *aggEntry) bool) {
	before := make([]int, len(f.log)+1)
	kept := f.log[:0]
	for k := range f.log {
		before[k] = len(kept)
		if keep(&f.log[k]) {
			kept = append(kept, f.log[k])
		}
	}
	before[len(f.log)] = len(kept)
	clear(f.log[len(kept):])
	f.log = kept
	for i := range f.windows {
		f.windows[i].cur = before[f.windows[i].cur]
	}
	f.reslot()
}

// combine computes, in channel mode, window i's aggregate for an operator
// at membership position pos and group key gk by combining the matching
// fragments' slots into the family's scratch slot.
func (f *aggFamily) combine(pos int, gk []byte, i int) (int64, bool) {
	total := &f.combined
	total.sum, total.count = 0, 0
	if f.multiset {
		if total.counts == nil {
			total.counts = make(map[int64]int64)
		}
		clear(total.counts)
	}
	found := false
	for _, fs := range f.frags {
		if !fs.member.Test(pos) {
			continue
		}
		ks := fs.byGroup[string(gk)]
		if ks == nil || ks.slots[i].count == 0 {
			continue
		}
		st := &ks.slots[i]
		found = true
		total.sum += st.sum
		total.count += st.count
		for v, c := range st.counts {
			total.counts[v] += c
		}
	}
	if !found {
		return 0, false
	}
	return total.value(f.fn), true
}

// Process implements MOp.
//
//rumor:owner — builds pooled output tuples and marks them engine-releasable.
func (m *AggMOp) Process(port int, t *stream.Tuple, emit Emit) {
	for _, f := range m.ports[port] {
		f.expire(t.TS)
		f.kbuf = f.appendGroupKey(f.kbuf[:0], t)
		fs := f.plain
		if f.channel {
			f.fbuf = t.Member.AppendKey(f.fbuf[:0])
			fs = f.frags[string(f.fbuf)]
			if fs == nil {
				fs = f.newFrag(string(f.fbuf), t.Member.Clone())
			}
		}
		ks := fs.byGroup[string(f.kbuf)]
		if ks == nil {
			ks = f.keyIn(fs, string(f.kbuf))
		}
		v := t.Vals[f.attr]
		f.log = append(f.log, aggEntry{ts: t.TS, ks: ks, val: v})
		ks.live++
		for i := range ks.slots {
			ks.slots[i].add(v, f.multiset)
		}
		if f.channel {
			for i := range f.windows {
				for _, o := range f.windows[i].ops {
					if o.inPos >= 0 && !t.Member.Test(o.inPos) {
						continue
					}
					if av, ok := f.combine(o.inPos, f.kbuf, i); ok {
						f.emitOne(o, t, av, emit)
					}
				}
			}
			continue
		}
		for i := range f.windows {
			ops := f.windows[i].ops
			out := f.outTuple(t, ks.slots[i].value(f.fn))
			// Every operator of a plain family fires, so the output is
			// singly referenced when the window's only operator is plain.
			// It is marked before emission: the engine may count it there.
			out.Owned = len(ops) == 1 && ops[0].tg.pos < 0
			plainEmits := 0
			for _, o := range ops {
				if o.tg.pos < 0 {
					plainEmits++
					emit(o.tg.port, out)
				} else {
					m.ce.add(o.tg)
				}
			}
			m.ce.flush(out, emit, plainEmits == 0)
		}
	}
}

// outTuple builds the [group attrs..., aggregate] output tuple.
func (f *aggFamily) outTuple(t *stream.Tuple, av int64) *stream.Tuple {
	out := f.pool.Get(t.TS, len(f.groupBy)+1)
	for i, a := range f.groupBy {
		out.Vals[i] = t.Vals[a]
	}
	out.Vals[len(f.groupBy)] = av
	return out
}

// ---------------------------------------------------------------------------
// State registry (uniform keyed-state holder, see registry.go)
// ---------------------------------------------------------------------------

// stateHolders implements the registry harvest for AggMOp: one holder per
// family, serving every window operator of the family.
func (m *AggMOp) stateHolders() []stateHolder {
	var out []stateHolder
	for _, fs := range m.ports {
		for _, f := range fs {
			out = append(out, f)
		}
	}
	return out
}

func (f *aggFamily) stateOpIDs() []int { return f.opIDs }

func (f *aggFamily) stateSides() []int { return aggSides }

var aggSides = []int{0}

func (f *aggFamily) stateKind() groupKind { return kindAggState }

// adoptFrom takes over a predecessor family's log and keys. A window both
// families have keeps its cursor; a window new to the family starts at the
// log head, so it is served every retained entry (all of its window when
// it is no longer than the predecessor's largest) and expiry trims the
// rest on the next tuple. When the largest window left, the log shrinks
// here to what the remaining windows still need.
func (f *aggFamily) adoptFrom(old stateHolder) error {
	of, ok := old.(*aggFamily)
	if !ok {
		return fmt.Errorf("agg family adopting %T state", old)
	}
	if of.channel != f.channel {
		return fmt.Errorf("agg family changed channel mode during live delta")
	}
	f.log, f.plain, f.frags = of.log, of.plain, of.frags
	for i := range f.windows {
		w := &f.windows[i]
		w.cur = 0
		for _, ow := range of.windows {
			if ow.length == w.length {
				w.cur = ow.cur
				break
			}
		}
	}
	f.reslot()
	f.trim()
	return nil
}

// keyComponent returns the position of the partition attribute within the
// group-by list. The partition analysis only declares an aggregate input
// keyed when the key is a group-by column, so log entries carry the key
// inside their interned group-key strings.
func (f *aggFamily) keyComponent(keyAttr int) int {
	for j, a := range f.groupBy {
		if a == keyAttr {
			return j
		}
	}
	return -1
}

// groupKeyComponent parses the j-th '|'-separated component of an interned
// group-key string.
func groupKeyComponent(key string, j int) int64 {
	start := 0
	for ; j > 0; j-- {
		i := strings.IndexByte(key[start:], '|')
		if i < 0 {
			return 0
		}
		start += i + 1
	}
	rest := key[start:]
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest = rest[:i]
	}
	v, _ := strconv.ParseInt(rest, 10, 64)
	return v
}

// exportKeyed removes the selected log entries, unwinding them from every
// window; the entries travel in the payload and are replayed by
// importKeyed, which reconstructs the slots exactly (a sliding-window
// aggregate is a pure function of its in-window entries). A negative
// keyAttr exports without key extraction (every item reports key 0) — the
// export-all transitions need no per-key selection.
func (f *aggFamily) exportKeyed(side, keyAttr int, sel func(int64, int) bool) *StatePayload {
	if side != 0 {
		return nil
	}
	j := -1
	if keyAttr >= 0 {
		j = f.keyComponent(keyAttr)
		if j < 0 {
			return nil
		}
	}
	pl := &StatePayload{kind: kindAggState, side: side}
	ord := make(map[int64]int)
	f.filterLog(func(e *aggEntry) bool {
		var key int64
		if j >= 0 {
			key = groupKeyComponent(e.ks.group, j)
		}
		o := ord[key]
		ord[key] = o + 1
		if !sel(key, o) {
			return true
		}
		pl.items = append(pl.items, StateItem{Key: key, TS: e.ts, Group: e.ks.group, Val: e.val, Member: e.ks.frag.member})
		return false
	})
	return pl
}

// importKeyed merges exported entries into the log by timestamp and
// reslots with every cursor at the log head: each window counts every
// entry, and the next tuple's expiry drops what is out of a window, as it
// would have for entries that never left.
func (f *aggFamily) importKeyed(pl *StatePayload, copied bool) error {
	if pl.kind != kindAggState {
		return fmt.Errorf("agg family importing %d-kind payload", pl.kind)
	}
	for _, it := range pl.items {
		if f.channel && it.Member == nil {
			return fmt.Errorf("agg import: channel group received a plain entry")
		}
		if !f.channel && it.Member != nil {
			return fmt.Errorf("agg import: plain group received a channel entry")
		}
	}
	add := make([]aggEntry, 0, len(pl.items))
	for _, it := range pl.items {
		fs := f.plain
		if f.channel {
			f.fbuf = it.Member.AppendKey(f.fbuf[:0])
			if fs = f.frags[string(f.fbuf)]; fs == nil {
				fs = f.newFrag(string(f.fbuf), it.Member.Clone())
			}
		}
		add = append(add, aggEntry{ts: it.TS, ks: f.keyIn(fs, it.Group), val: it.Val})
	}
	f.log = mergeByTS(f.log, add, func(e aggEntry) int64 { return e.ts })
	for i := range f.windows {
		f.windows[i].cur = 0
	}
	f.reslot()
	return nil
}

// keyHistogram counts log entries per partition key.
func (f *aggFamily) keyHistogram(side, keyAttr int, h map[int64]int64) {
	j := f.keyComponent(keyAttr)
	if side != 0 || j < 0 {
		return
	}
	for _, e := range f.log {
		h[groupKeyComponent(e.ks.group, j)]++
	}
}

// remapMemberships rewrites the fragment memberships of a channel-mode
// family through a channel position remap: fragments are re-keyed under
// their remapped memberships, fragments that collide after the remap (they
// differed only in scrubbed positions) merge, and fragments whose
// membership empties are dropped together with their log entries (they
// belonged only to scrubbed slots). Entry order — and thus window expiry —
// is preserved.
func (f *aggFamily) remapMemberships(side int, rm *Remap) {
	if side != 0 || !f.channel || len(f.frags) == 0 {
		return
	}
	moved := make(map[*fragState]*fragState, len(f.frags))
	next := make(map[string]*fragState, len(f.frags))
	for _, fs := range f.frags {
		nm := rm.Apply(fs.member)
		if nm.Empty() {
			moved[fs] = nil
			continue
		}
		f.fbuf = nm.AppendKey(f.fbuf[:0])
		nfs := next[string(f.fbuf)]
		if nfs == nil {
			nfs = &fragState{key: string(f.fbuf), member: nm, byGroup: make(map[string]*keyState)}
			next[nfs.key] = nfs
		}
		moved[fs] = nfs
	}
	f.filterLog(func(e *aggEntry) bool {
		nfs := moved[e.ks.frag]
		if nfs == nil {
			return false // fragment dropped: the entry's streams are all dead
		}
		e.ks = f.keyIn(nfs, e.ks.group)
		return true
	})
}

// replayMember grants a freshly merged aggregation operator (membership
// position pos) its view of the shared log: every entry whose
// reconstructed contribution keep() accepts moves to the fragment carrying
// the entry's membership plus bit pos. The reconstruction exposes exactly
// the attributes the log stores — the group-by columns (parsed from the
// interned group key) and the aggregated attribute — so the caller must
// only pass keep predicates over those attributes (the engine checks
// evaluability before replaying).
func (f *aggFamily) replayMember(side, pos int, keep func(*stream.Tuple) bool) int {
	if side != 0 || !f.channel {
		return 0
	}
	arity := f.attr + 1
	for _, a := range f.groupBy {
		if a+1 > arity {
			arity = a + 1
		}
	}
	scratch := &stream.Tuple{Vals: make([]int64, arity)}
	tagged := make(map[*fragState]*fragState)
	moved := 0
	for i := range f.log {
		e := &f.log[i]
		fs := e.ks.frag
		if fs.member.Test(pos) {
			continue
		}
		for j, a := range f.groupBy {
			scratch.Vals[a] = groupKeyComponent(e.ks.group, j)
		}
		scratch.Vals[f.attr] = e.val
		scratch.TS = e.ts
		if !keep(scratch) {
			continue
		}
		nfs := tagged[fs]
		if nfs == nil {
			nm := fs.member.Clone()
			nm.Set(pos)
			f.fbuf = nm.AppendKey(f.fbuf[:0])
			if nfs = f.frags[string(f.fbuf)]; nfs == nil {
				nfs = f.newFrag(string(f.fbuf), nm)
			}
			tagged[fs] = nfs
		}
		e.ks = f.keyIn(nfs, e.ks.group)
		moved++
	}
	if moved > 0 {
		f.reslot()
	}
	return moved
}

// discardState: aggregation families own no pooled state.
func (f *aggFamily) discardState() {}

// emitOne emits a per-operator output (channel mode; values can differ per
// operator, so each output carries its own interned singleton membership).
// Each output is freshly built and emitted exactly once, so it stays
// engine-releasable.
//
//rumor:owner
func (f *aggFamily) emitOne(o selOp, t *stream.Tuple, av int64, emit Emit) {
	out := f.outTuple(t, av)
	if o.tg.pos >= 0 {
		out.Member = bitset.Singleton(o.tg.pos)
	}
	out.Owned = true
	emit(o.tg.port, out)
}
