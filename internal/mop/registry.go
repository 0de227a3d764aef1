package mop

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/stream"
)

// This file implements the uniform operator state registry: every stateful
// m-op exposes its keyed state groups (aggregation windows, join sides,
// sequence/µ instance stores) through one holder interface, indexed by the
// plan operator IDs each group serves. The registry powers two consumers:
//
//   - live plan maintenance (engine.ApplyDelta): when a delta re-lowers an
//     m-op, the freshly lowered groups adopt their predecessors' state via
//     Adopt, and state no successor adopted (it belonged exclusively to
//     removed queries) is discarded — the migration job the former
//     MigrationPool did with three ad-hoc per-kind paths;
//
//   - online shard rebalancing (package shard): each group can export the
//     stored items of a partition-key range (ExportState over the key read
//     at a stream attribute), and import items exported from a peer
//     replica's matching group (ImportState), so the sharded runtime can
//     drain, re-hash stored state to its new owners, and resume.
//
// Exported state travels as a StatePayload: a timestamp-ordered list of
// keyed items whose representation is kind-specific (window entries for
// aggregates, stored tuples for join sides, instance records for ;/µ).
// Payloads from several replicas merge by timestamp and split by
// destination, so FIFO expiry order survives the move.

// stateHolder is the uniform interface of one keyed state group. All
// implementations (aggFamily, joinGroup, stateGroup) walk their stores in
// deterministic (insertion/timestamp) order, which the rebalancer relies
// on when replicated copies must deduplicate without a transfer.
type stateHolder interface {
	// stateOpIDs returns the plan operator IDs the group serves.
	stateOpIDs() []int
	// stateSides returns the input sides holding stored state (0 for the
	// only/left input; joins additionally store side 1).
	stateSides() []int
	// stateKind returns the payload kind the group exports.
	stateKind() groupKind
	// adoptFrom moves the whole state of a predecessor group (same kind,
	// same definition) into this freshly lowered group.
	adoptFrom(old stateHolder) error
	// exportKeyed removes and returns the stored items of one side whose
	// partition key — the stored value at keyAttr (stream-schema position)
	// — is selected. sel receives the key and the item's per-key ordinal
	// (its position among the side's items with that key, in store order).
	// A negative keyAttr skips key extraction (items report key 0), for
	// export-all transitions that select irrespective of the key.
	exportKeyed(side, keyAttr int, sel func(key int64, ord int) bool) *StatePayload
	// importKeyed splices a payload exported from a peer group. copied
	// marks a payload that is also imported elsewhere: anything mutable or
	// pool-owned must be deep-copied instead of adopted.
	importKeyed(pl *StatePayload, copied bool) error
	// keyHistogram adds the side's per-key stored-item counts to h.
	keyHistogram(side, keyAttr int, h map[int64]int64)
	// remapMemberships rewrites the channel memberships stored against one
	// input side through a position remap (channel compaction / slot
	// reuse). Memberships are replaced, never mutated in place: stored
	// sets may be shared (µ duplicate instances, replicated imports), so
	// the old set must stay intact for every other reader.
	remapMemberships(side int, rm *Remap)
	// replayMember re-derives a freshly merged member's view of the shared
	// store: every stored live item whose content keep() accepts gains the
	// member's membership bit, so a mid-stream subscriber starts with the
	// full retained window instead of empty gated state. Returns the
	// number of items tagged.
	replayMember(side, pos int, keep func(*stream.Tuple) bool) int
	// discardState releases group-owned pooled state (unadopted groups).
	discardState()
}

// Remap applies a channel-position table to stored membership sets within
// one engine replica's delta application. Sets are replaced through a
// cache: a set shared by several stored items (µ duplicates, join tuples
// stored on both group sides) is rewritten exactly once and stays shared,
// and a set the remap itself produced is recognized and never remapped
// twice (the same stored tuple can be visited through several groups).
type Remap struct {
	table []int
	width int
	out   map[*bitset.Set]*bitset.Set
	made  map[*bitset.Set]bool
	seen  map[remapSeen]bool
}

type remapSeen struct {
	h    stateHolder
	side int
}

// NewRemap builds a remap from an old-position → new-position table
// (-1 drops the position's bit).
func NewRemap(table []int) *Remap {
	w := 0
	for _, np := range table {
		if np+1 > w {
			w = np + 1
		}
	}
	return &Remap{
		table: table,
		width: w,
		out:   make(map[*bitset.Set]*bitset.Set),
		made:  make(map[*bitset.Set]bool),
		seen:  make(map[remapSeen]bool),
	}
}

// Apply returns the remapped replacement of s (nil-safe). The result is
// cached per input set; inputs the remap produced itself pass through.
func (r *Remap) Apply(s *bitset.Set) *bitset.Set {
	if s == nil {
		return nil
	}
	if r.made[s] {
		return s
	}
	if n, ok := r.out[s]; ok {
		return n
	}
	n := bitset.New(r.width)
	s.ForEach(func(i int) bool {
		if i < len(r.table) && r.table[i] >= 0 {
			n.Set(r.table[i])
		}
		return true
	})
	r.out[s] = n
	r.made[n] = true
	return n
}

// visit marks one (holder, side) as rewritten, reporting whether it
// already was: several operators of one state group must not push the
// same remap through the group twice.
func (r *Remap) visit(h stateHolder, side int) bool {
	k := remapSeen{h: h, side: side}
	if r.seen[k] {
		return true
	}
	r.seen[k] = true
	return false
}

// groupKind tags the payload representation of a state group.
type groupKind uint8

// State-payload kind tags (wire-stable through mop/wire.go's WireKind*
// aliases).
//
//rumor:wiretags
const (
	kindAggState groupKind = iota
	kindJoinState
	kindSeqState
	kindMuState
)

// StateItem is one keyed piece of exported operator state, as stored in a
// payload and as the wire codec reads and rebuilds it. Key is the
// partition-key value; TS orders the item for FIFO window expiry. The
// remaining fields are kind-specific.
type StateItem struct {
	Key int64
	TS  int64

	// WireKindAgg: one entry of an aggregate family's log.
	Group  string // interned group-key string
	Val    int64
	Member *bitset.Set // fragment membership (channel) / instance membership

	// WireKindJoin: the stored input tuple.
	Tuple *stream.Tuple

	// WireKindSeq / WireKindMu: one automaton instance.
	Start *stream.Tuple
	State *stream.Tuple // == Start for ; (not transported), pooled start++last for µ
}

// StatePayload carries exported keyed state between engine replicas: the
// items of one (state group, side), in timestamp order.
type StatePayload struct {
	kind groupKind
	side int

	items []StateItem
}

// Len returns the number of items in the payload (nil-safe).
func (p *StatePayload) Len() int {
	if p == nil {
		return 0
	}
	return len(p.items)
}

// Side returns the input side the payload was exported from.
func (p *StatePayload) Side() int { return p.side }

// MergePayloads merges same-shaped payloads from several replicas into one
// timestamp-ordered payload (k-way merge, stable across inputs). nil and
// empty payloads are skipped; the result is nil when nothing remains.
func MergePayloads(ps []*StatePayload) *StatePayload {
	var live []*StatePayload
	for _, p := range ps {
		if p.Len() > 0 {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := &StatePayload{kind: live[0].kind, side: live[0].side}
	total := 0
	for _, p := range live {
		total += len(p.items)
	}
	out.items = make([]StateItem, 0, total)
	idx := make([]int, len(live))
	for len(out.items) < total {
		best := -1
		var bestTS int64
		for i, p := range live {
			if idx[i] >= len(p.items) {
				continue
			}
			if ts := p.items[idx[i]].TS; best < 0 || ts < bestTS {
				best, bestTS = i, ts
			}
		}
		out.items = append(out.items, live[best].items[idx[best]])
		idx[best]++
	}
	return out
}

// SplitBy partitions the payload into n destination payloads, routing each
// item by dest(key). Item order (and thus timestamp order) is preserved
// within each destination. Destinations outside [0, n) drop the item.
func (p *StatePayload) SplitBy(n int, dest func(key int64) int) []*StatePayload {
	out := make([]*StatePayload, n)
	if p == nil {
		return out
	}
	for _, it := range p.items {
		d := dest(it.Key)
		if d < 0 || d >= n {
			continue
		}
		if out[d] == nil {
			out[d] = &StatePayload{kind: p.kind, side: p.side}
		}
		out[d].items = append(out[d].items, it)
	}
	return out
}

// Discard releases payload-owned pooled state (the µ instance state tuples
// of items that were never imported, or were imported by copy everywhere).
func (p *StatePayload) Discard() {
	if p == nil || p.kind != kindMuState {
		return
	}
	for i := range p.items {
		if st := p.items[i].State; st != nil {
			st.Release()
			p.items[i].State = nil
		}
	}
}

// mergeByTS merges two timestamp-ordered slices (stable: a's items win
// ties), reusing a's backing array when possible.
func mergeByTS[T any](a, b []T, ts func(T) int64) []T {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if ts(a[i]) <= ts(b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// StateRegistry indexes the state groups of a set of m-ops by the operator
// IDs they serve: the per-engine registry behind both live-delta state
// migration and online rebalancing.
type StateRegistry struct {
	holders []stateHolder
	byOp    map[int]stateHolder
	adopted map[stateHolder]bool
}

// NewStateRegistry harvests the state groups of the given m-ops.
func NewStateRegistry(ms []MOp) *StateRegistry {
	r := &StateRegistry{
		byOp:    make(map[int]stateHolder),
		adopted: make(map[stateHolder]bool),
	}
	for _, m := range ms {
		sh, ok := m.(interface{ stateHolders() []stateHolder })
		if !ok {
			continue
		}
		for _, h := range sh.stateHolders() {
			r.holders = append(r.holders, h)
			for _, id := range h.stateOpIDs() {
				r.byOp[id] = h
			}
		}
	}
	return r
}

// Adopt moves matching predecessor state into the freshly lowered m-op:
// each new state group looks up the (single) old group serving any of its
// operator IDs and adopts its state wholesale. A group whose operators all
// are new starts empty; a group spanning two distinct old groups would
// need a state merge the live rule set never produces and is an error.
func (r *StateRegistry) Adopt(l *Lowered) error {
	sh, ok := l.MOp.(interface{ stateHolders() []stateHolder })
	if !ok {
		return nil
	}
	for _, h := range sh.stateHolders() {
		old, err := r.lookupOld(h.stateOpIDs())
		if err != nil {
			return err
		}
		if old == nil {
			continue
		}
		if err := h.adoptFrom(old); err != nil {
			return err
		}
	}
	return nil
}

// lookupOld resolves the old group serving any of the given operator IDs,
// enforcing the one-predecessor and adopt-once invariants.
func (r *StateRegistry) lookupOld(opIDs []int) (stateHolder, error) {
	var found stateHolder
	for _, id := range opIDs {
		og, ok := r.byOp[id]
		if !ok {
			continue
		}
		if found == nil {
			found = og
		} else if found != og {
			return nil, fmt.Errorf("operators span two predecessor state groups")
		}
	}
	if found == nil {
		return nil, nil
	}
	if r.adopted[found] {
		return nil, fmt.Errorf("predecessor state group adopted twice")
	}
	r.adopted[found] = true
	return found, nil
}

// DiscardRest releases the state of groups no successor adopted: they
// belonged exclusively to removed queries.
func (r *StateRegistry) DiscardRest() {
	for _, h := range r.holders {
		if r.adopted[h] {
			continue
		}
		h.discardState()
	}
}

// GroupRef identifies one state group to the shard rebalancer. OpID (the
// smallest plan operator ID the group serves) is the group's cross-replica
// identity: every engine replica lowered from the same plan yields the
// same groups under the same OpIDs.
type GroupRef struct {
	OpID  int
	OpIDs []int
	Sides []int
}

// Groups lists the registry's state groups sorted by OpID.
func (r *StateRegistry) Groups() []GroupRef {
	out := make([]GroupRef, 0, len(r.holders))
	for _, h := range r.holders {
		ids := append([]int(nil), h.stateOpIDs()...)
		if len(ids) == 0 {
			continue
		}
		sort.Ints(ids)
		out = append(out, GroupRef{OpID: ids[0], OpIDs: ids, Sides: h.stateSides()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OpID < out[j].OpID })
	return out
}

// Export removes and returns the stored items of one group side whose
// partition key (the stored value at keyAttr) is selected. The group is
// addressed by any operator ID it serves.
func (r *StateRegistry) Export(opID, side, keyAttr int, sel func(key int64, ord int) bool) (*StatePayload, error) {
	h, ok := r.byOp[opID]
	if !ok {
		return nil, fmt.Errorf("mop: no state group serves operator %d", opID)
	}
	return h.exportKeyed(side, keyAttr, sel), nil
}

// Import splices a payload exported from a peer replica's matching group.
// copied marks a payload also imported elsewhere (state is deep-copied).
func (r *StateRegistry) Import(opID int, pl *StatePayload, copied bool) error {
	if pl.Len() == 0 {
		return nil
	}
	h, ok := r.byOp[opID]
	if !ok {
		return fmt.Errorf("mop: no state group serves operator %d", opID)
	}
	return h.importKeyed(pl, copied)
}

// Histogram adds the per-key stored-item counts of one group side to h
// (load estimation for the rebalance planner).
func (r *StateRegistry) Histogram(opID, side, keyAttr int, h map[int64]int64) {
	if g, ok := r.byOp[opID]; ok {
		g.keyHistogram(side, keyAttr, h)
	}
}

// RemapMemberships pushes a channel-position remap through the state group
// serving the operator's given input side. Operators without a stored
// state group (stateless consumers, or delta-new operators the registry
// never lowered) are skipped; a group reached through several of its
// operators is rewritten once per side.
func (r *StateRegistry) RemapMemberships(opID, side int, rm *Remap) {
	h, ok := r.byOp[opID]
	if !ok {
		return
	}
	if rm.visit(h, side) {
		return
	}
	h.remapMemberships(side, rm)
}

// ReplayMember re-derives a freshly merged operator's view of its group's
// shared store (see stateHolder.replayMember). The group is addressed by
// the operator's ID; pos is the operator's membership position on the
// group's input channel.
func (r *StateRegistry) ReplayMember(opID, side, pos int, keep func(*stream.Tuple) bool) (int, error) {
	h, ok := r.byOp[opID]
	if !ok {
		return 0, fmt.Errorf("mop: no state group serves operator %d", opID)
	}
	return h.replayMember(side, pos, keep), nil
}
