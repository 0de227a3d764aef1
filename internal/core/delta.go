package core

import (
	"fmt"
	"slices"
	"sort"
)

// This file implements live plan maintenance: recording plan deltas while
// the rewriting primitives mutate an already-running plan, and removing a
// query from a plan without disturbing the operators the surviving queries
// share. The engine consumes a Delta to splice the changes into its dense
// routing tables and re-lower only the touched m-ops (package engine),
// migrating their operator state (package mop) instead of rebuilding the
// world.

// Delta records the effect of one live maintenance operation (adding or
// removing a query) on a physical plan. Node and edge IDs refer to the
// plan's post-mutation state; a node that was created and then absorbed by
// a merge within the same delta appears only through its successor.
type Delta struct {
	// Dirty is the set of node IDs that are new or whose operator set,
	// input wiring, or output wiring changed: the engine must (re-)lower
	// them, migrating operator state from their predecessors.
	Dirty map[int]bool
	// Removed is the set of node IDs no longer in the plan: nodes absorbed
	// by a merge (their state migrates into the successor via shared
	// operator IDs) and nodes garbage-collected by query removal (their
	// state is discarded).
	Removed map[int]bool
	// RemovedEdges is the set of edge IDs no longer in the plan.
	RemovedEdges map[int]bool
	// NewEdges is the set of edge IDs created during the delta. The live
	// channel rule uses it to restrict encoding to freshly built streams.
	NewEdges map[int]bool
	// NewStreams is the set of stream IDs created during the delta. The
	// engine's re-merge replay uses it to spot operators whose channel
	// membership position is fresh (their view of a shared store must be
	// re-derived from the stored items).
	NewStreams map[int]bool
	// Remaps lists channel re-encodings performed during the delta, in
	// application order: each one tells the engine to push a membership
	// position remap through the operator state stored against the
	// rewritten channel before re-lowering its consumers.
	Remaps []ChannelRemap
	// NewQueries lists the query IDs registered during the delta. Even a
	// delta with no node changes (a query fully absorbed by CSE, or a bare
	// scan of an existing source) must reach the engine: its output sink
	// is new.
	NewQueries []int
	// RemovedQueries lists the query IDs dropped during the delta.
	RemovedQueries []int
}

// ChannelRemap records one channel re-encoding: tombstoned membership
// positions were dropped (compaction) or scrubbed for reuse by a fresh
// stream, so stored memberships inside the running m-ops must be rewritten
// before the delta's re-lowering takes effect.
type ChannelRemap struct {
	// EdgeID is the channel's pre-rewrite edge ID — the identity under
	// which the engine's current wiring knows it.
	EdgeID int
	// Table maps each old membership position to its new position, or -1
	// when the old position's bit must be dropped from stored memberships
	// (a removed tombstone slot, or a slot scrubbed for reuse).
	Table []int
	// Ops lists the consumer operators whose state groups hold memberships
	// encoded against the old positions, with the input side that reads
	// the channel.
	Ops []RemapOp
}

// RemapOp addresses one state-holding consumer of a remapped channel.
type RemapOp struct {
	OpID int
	Side int
}

func newDelta() *Delta {
	return &Delta{
		Dirty:        make(map[int]bool),
		Removed:      make(map[int]bool),
		RemovedEdges: make(map[int]bool),
		NewEdges:     make(map[int]bool),
		NewStreams:   make(map[int]bool),
	}
}

// Empty reports whether the delta records no change.
func (d *Delta) Empty() bool {
	return d == nil || (len(d.Dirty) == 0 && len(d.Removed) == 0 &&
		len(d.RemovedEdges) == 0 && len(d.NewEdges) == 0 &&
		len(d.NewStreams) == 0 && len(d.Remaps) == 0 &&
		len(d.NewQueries) == 0 && len(d.RemovedQueries) == 0)
}

// String renders the delta for logs and tests.
func (d *Delta) String() string {
	return fmt.Sprintf("delta{dirty:%v removed:%v edges:-%v +%v remaps:%d queries:-%v}",
		sortedKeys(d.Dirty), sortedKeys(d.Removed), sortedKeys(d.RemovedEdges), sortedKeys(d.NewEdges), len(d.Remaps), d.RemovedQueries)
}

// BeginDelta starts recording plan mutations. Exactly one recording may be
// active at a time; TakeDelta ends it.
func (p *Physical) BeginDelta() error {
	if p.rec != nil {
		return fmt.Errorf("core: delta recording already active")
	}
	p.rec = newDelta()
	return nil
}

// TakeDelta ends the active recording and returns the accumulated delta.
func (p *Physical) TakeDelta() *Delta {
	d := p.rec
	p.rec = nil
	return d
}

// Recording reports whether a delta recording is active.
func (p *Physical) Recording() bool { return p.rec != nil }

// NewEdge reports whether edge id was created during the active recording.
func (p *Physical) NewEdge(id int) bool {
	return p.rec != nil && p.rec.NewEdges[id]
}

// DirtyNodes returns the IDs of the nodes marked dirty by the active
// recording, in ascending order (nil without an active recording). The
// incremental rule pass seeds its candidate groups from these nodes: on a
// plan otherwise at fixpoint, a rule can only fire on a group touching a
// dirty operator.
func (p *Physical) DirtyNodes() []int {
	if p.rec == nil {
		return nil
	}
	return sortedKeys(p.rec.Dirty)
}

func (p *Physical) noteDirty(nodeID int) {
	if p.rec != nil {
		p.rec.Dirty[nodeID] = true
	}
}

func (p *Physical) noteRemovedNode(nodeID int) {
	if p.rec != nil {
		delete(p.rec.Dirty, nodeID)
		p.rec.Removed[nodeID] = true
	}
}

func (p *Physical) noteNewEdge(edgeID int) {
	if p.rec != nil {
		p.rec.NewEdges[edgeID] = true
	}
}

func (p *Physical) noteNewStream(streamID int) {
	if p.rec != nil {
		p.rec.NewStreams[streamID] = true
	}
}

func (p *Physical) noteDroppedStream(streamID int) {
	if p.rec != nil {
		delete(p.rec.NewStreams, streamID)
	}
}

// noteRemap records a channel re-encoding: the edge's pre-rewrite ID, the
// position table, and the consumers currently holding state keyed against
// the old positions. Consumers are harvested from the plan's live streams
// of the edge at call time (tombstones have none).
func (p *Physical) noteRemap(edgeID int, table []int, streams []*StreamRef) {
	if p.rec == nil {
		return
	}
	cr := ChannelRemap{EdgeID: edgeID, Table: table}
	for _, s := range streams {
		if s.Dead {
			continue
		}
		for _, c := range p.consumersOf[s.ID] {
			for side, in := range c.In {
				if in == s {
					cr.Ops = append(cr.Ops, RemapOp{OpID: c.ID, Side: side})
				}
			}
		}
	}
	sort.Slice(cr.Ops, func(i, j int) bool {
		if cr.Ops[i].OpID != cr.Ops[j].OpID {
			return cr.Ops[i].OpID < cr.Ops[j].OpID
		}
		return cr.Ops[i].Side < cr.Ops[j].Side
	})
	p.rec.Remaps = append(p.rec.Remaps, cr)
}

func (p *Physical) noteRemovedEdge(edgeID int) {
	if p.rec != nil {
		if p.rec.NewEdges[edgeID] {
			delete(p.rec.NewEdges, edgeID)
			return
		}
		p.rec.RemovedEdges[edgeID] = true
	}
}

// ---------------------------------------------------------------------------
// Query removal
// ---------------------------------------------------------------------------

// RemoveQuery removes query id from the plan: operators reachable only
// from the removed query's output are deleted (their nodes shrink or
// disappear), their output streams are tombstoned so that the membership
// positions of surviving channel streams stay stable, and edges whose
// streams are all dead are dropped. Source nodes always survive. The
// active delta recording (if any) captures every change.
func (p *Physical) RemoveQuery(queryID int) error {
	idx := -1
	for i, q := range p.Queries {
		if q.ID == queryID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: query %d not in plan", queryID)
	}

	// Operators needed by the surviving queries: everything reachable from
	// their output streams through producer links.
	live := make(map[*Op]bool)
	var mark func(s *StreamRef)
	mark = func(s *StreamRef) {
		o := s.Producer
		if o == nil || live[o] {
			return
		}
		live[o] = true
		for _, in := range o.In {
			mark(in)
		}
	}
	for _, q := range p.Queries {
		if q.ID == queryID {
			continue
		}
		if out := p.outStream[q.ID]; out != nil {
			mark(out)
		}
	}

	// Sweep nodes in ID order for a deterministic delta.
	for _, id := range sortedKeys(p.Nodes) {
		n := p.Nodes[id]
		if n.Kind == KindSource {
			continue
		}
		lost := false
		for _, o := range append([]*Op(nil), n.Ops...) {
			if live[o] {
				continue
			}
			lost = true
			p.removeDeadOp(o)
		}
		if !lost {
			continue
		}
		if len(n.Ops) == 0 {
			delete(p.Nodes, n.ID)
			p.noteRemovedNode(n.ID)
		} else {
			p.noteDirty(n.ID)
		}
	}

	p.Queries = slices.Delete(p.Queries, idx, idx+1)
	p.dropOutput(queryID)
	if p.rec != nil {
		p.rec.RemovedQueries = append(p.rec.RemovedQueries, queryID)
	}
	return nil
}

// removeDeadOp unlinks one unreachable operator: consumer indexes, its
// node's op list, and its output stream (tombstoned in place on shared
// channel edges; single-stream and fully-dead edges are dropped).
func (p *Physical) removeDeadOp(o *Op) {
	isOp := func(x *Op) bool { return x == o }
	for _, in := range o.In {
		p.consumersOf[in.ID] = slices.DeleteFunc(p.consumersOf[in.ID], isOp)
		if len(p.consumersOf[in.ID]) == 0 {
			delete(p.consumersOf, in.ID)
		}
	}
	if o.Out != nil {
		dead := o.Out
		dead.Dead = true
		p.dropClassStreams(dead.ShareClass, func(s *StreamRef) bool { return s == dead })
		p.noteDroppedStream(dead.ID)
		delete(p.consumersOf, dead.ID)
		if e := p.streamEdge[dead.ID]; e != nil {
			if e.LiveStreams() == 0 {
				for _, s := range e.Streams {
					delete(p.streamEdge, s.ID)
				}
				delete(p.Edges, e.ID)
				p.noteRemovedEdge(e.ID)
			}
			// Otherwise the dead stream stays in e.Streams as a tombstone:
			// surviving streams keep their membership positions, and stored
			// channel memberships inside running m-ops remain valid.
		}
	}
	o.Node.Ops = slices.DeleteFunc(o.Node.Ops, isOp)
}

// OpRefcounts returns, per operator ID, the number of registered queries
// whose output depends on the operator (its live reference count). An
// operator shared by k queries reports k; removal garbage-collects an
// operator exactly when its count would reach zero.
func (p *Physical) OpRefcounts() map[int]int {
	counts := make(map[int]int)
	for _, q := range p.Queries {
		out := p.outStream[q.ID]
		if out == nil {
			continue
		}
		seen := make(map[*Op]bool)
		var walk func(s *StreamRef)
		walk = func(s *StreamRef) {
			o := s.Producer
			if o == nil || seen[o] {
				return
			}
			seen[o] = true
			counts[o.ID]++
			for _, in := range o.In {
				walk(in)
			}
		}
		walk(out)
	}
	return counts
}
