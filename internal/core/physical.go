package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/stream"
)

// StreamRef is a logical stream in a physical plan: the output of one
// operator instance (or a source). Channels encode one or more StreamRefs
// on a single Edge; a stream's position within its edge is its membership
// bit index.
type StreamRef struct {
	ID       int
	Schema   *stream.Schema
	Producer *Op    // nil for source streams
	Source   string // source name when Producer == nil
	// ShareClass is the canonical signature of the paper's sharable-stream
	// relation ∼ (§3.2): two streams are sharable iff their classes are
	// equal.
	ShareClass string
	// Dead marks a tombstoned stream: its producer was garbage-collected
	// by live query removal, but the stream keeps its slot on a shared
	// channel edge so surviving streams' membership positions stay stable.
	Dead bool
}

// Op is one physical operator instance, owned by a query. An m-op (Node)
// implements a set of Ops.
type Op struct {
	ID      int
	QueryID int
	Def     *Def
	In      []*StreamRef
	Out     *StreamRef
	Node    *Node // owning m-op
}

// Node is an m-op in the plan DAG: the scheduling and execution unit,
// implementing one or more operators of the same kind (§2.2).
type Node struct {
	ID   int
	Kind OpKind
	Ops  []*Op
}

// Edge is a channel: the physical carrier of one or more streams (§3.1).
// A fresh plan has single-stream edges; the cτ rules merge sharable
// streams into multi-stream edges whose tuples carry membership vectors.
type Edge struct {
	ID      int
	Streams []*StreamRef
}

// IsChannel reports whether the edge encodes more than one stream
// (tombstoned streams keep their slot and still count structurally:
// membership positions are defined over all slots).
func (e *Edge) IsChannel() bool { return len(e.Streams) > 1 }

// LiveStreams returns the number of non-tombstoned streams on the edge.
func (e *Edge) LiveStreams() int {
	n := 0
	for _, s := range e.Streams {
		if !s.Dead {
			n++
		}
	}
	return n
}

// Pos returns the membership index of stream s on the edge, or -1.
func (e *Edge) Pos(s *StreamRef) int {
	for i, t := range e.Streams {
		if t == s {
			return i
		}
	}
	return -1
}

// Physical is a multi-query physical plan: a DAG of m-op Nodes connected
// by channel Edges, implementing all currently active queries (§2.1).
type Physical struct {
	Catalog map[string]SourceDecl

	Nodes map[int]*Node
	Edges map[int]*Edge

	Queries []*Query

	streamEdge  map[int]*Edge // stream ID → carrying edge
	consumersOf map[int][]*Op // stream ID → consuming ops
	sourceRef   map[string]*StreamRef
	outStream   map[int]*StreamRef // query ID → output stream
	// outQueries is outStream's reverse: stream ID → the queries whose
	// output it is, so CSE remaps only a dead stream's own queries.
	outQueries map[int][]int
	// classStreams indexes live streams by their ∼ share class, so the
	// incremental channel rule finds a dirty operator's sharing partners
	// without scanning the plan.
	classStreams map[string][]*StreamRef

	nextStream, nextOp, nextNode, nextEdge, nextQuery int

	// rec, when non-nil, records plan mutations for live maintenance
	// (see delta.go).
	rec *Delta
}

// NewPhysical creates an empty plan over the given source catalog.
func NewPhysical(catalog map[string]SourceDecl) *Physical {
	return &Physical{
		Catalog:      catalog,
		Nodes:        make(map[int]*Node),
		Edges:        make(map[int]*Edge),
		streamEdge:   make(map[int]*Edge),
		consumersOf:  make(map[int][]*Op),
		sourceRef:    make(map[string]*StreamRef),
		outStream:    make(map[int]*StreamRef),
		outQueries:   make(map[int][]int),
		classStreams: make(map[string][]*StreamRef),
	}
}

// addClassStream registers a freshly created stream in the share-class
// index (its ShareClass must already be set).
func (p *Physical) addClassStream(s *StreamRef) {
	if s.ShareClass == "" {
		return
	}
	p.classStreams[s.ShareClass] = append(p.classStreams[s.ShareClass], s)
}

// dropClassStreams removes the streams dead reports true for from one
// share class's index entry.
func (p *Physical) dropClassStreams(class string, dead func(*StreamRef) bool) {
	list := slices.DeleteFunc(p.classStreams[class], dead)
	if len(list) == 0 {
		delete(p.classStreams, class)
	} else {
		p.classStreams[class] = list
	}
}

// StreamsOfClass returns the live streams of one ∼ share class. The result
// is the index's backing slice; callers must not mutate it.
func (p *Physical) StreamsOfClass(class string) []*StreamRef {
	return p.classStreams[class]
}

// AddQuery plans q naively — one operator per m-op, one stream per edge —
// and registers its output stream. The m-rules then rewrite the plan.
func (p *Physical) AddQuery(q *Query) error {
	if err := q.Root.Validate(); err != nil {
		return fmt.Errorf("query %q: %w", q.Name, err)
	}
	// Pre-validate sources before mutating the plan.
	if err := p.checkSources(q.Root); err != nil {
		return fmt.Errorf("query %q: %w", q.Name, err)
	}
	q.ID = p.nextQuery
	p.nextQuery++
	out, err := p.build(q.ID, q.Root)
	if err != nil {
		return fmt.Errorf("query %q: %w", q.Name, err)
	}
	p.Queries = append(p.Queries, q)
	p.setOutput(q.ID, out)
	if p.rec != nil {
		p.rec.NewQueries = append(p.rec.NewQueries, q.ID)
	}
	return nil
}

func (p *Physical) checkSources(l *Logical) error {
	if l.Def.Kind == KindSource {
		if _, ok := p.Catalog[l.Source]; !ok {
			return fmt.Errorf("unknown source stream %q", l.Source)
		}
		return nil
	}
	for _, c := range l.Children {
		if err := p.checkSources(c); err != nil {
			return err
		}
	}
	return nil
}

// build recursively constructs operators for the logical tree and returns
// the output stream of the root.
func (p *Physical) build(queryID int, l *Logical) (*StreamRef, error) {
	if l.Def.Kind == KindSource {
		return p.ensureSource(l.Source), nil
	}
	ins := make([]*StreamRef, len(l.Children))
	for i, c := range l.Children {
		s, err := p.build(queryID, c)
		if err != nil {
			return nil, err
		}
		ins[i] = s
	}
	outSchema, err := outputSchema(l.Def, ins)
	if err != nil {
		return nil, err
	}
	op := &Op{ID: p.nextOp, QueryID: queryID, Def: l.Def, In: ins}
	p.nextOp++
	out := &StreamRef{ID: p.nextStream, Schema: outSchema, Producer: op}
	p.nextStream++
	p.noteNewStream(out.ID)
	out.ShareClass = p.shareClass(op, ins)
	p.addClassStream(out)
	op.Out = out
	node := &Node{ID: p.nextNode, Kind: l.Def.Kind, Ops: []*Op{op}}
	p.nextNode++
	op.Node = node
	p.Nodes[node.ID] = node
	p.noteDirty(node.ID)
	p.addEdge(out)
	for _, s := range ins {
		p.consumersOf[s.ID] = append(p.consumersOf[s.ID], op)
	}
	return out, nil
}

// ensureSource returns the (shared) stream of a named source, creating its
// node and edge on first use.
func (p *Physical) ensureSource(name string) *StreamRef {
	if s, ok := p.sourceRef[name]; ok {
		return s
	}
	decl := p.Catalog[name]
	op := &Op{ID: p.nextOp, QueryID: -1, Def: &Def{Kind: KindSource}}
	p.nextOp++
	s := &StreamRef{ID: p.nextStream, Schema: decl.Schema, Producer: op, Source: name}
	p.nextStream++
	p.noteNewStream(s.ID)
	if decl.Label != "" {
		s.ShareClass = "src:" + decl.Label
	} else {
		s.ShareClass = "src#" + name
	}
	p.addClassStream(s)
	op.Out = s
	node := &Node{ID: p.nextNode, Kind: KindSource, Ops: []*Op{op}}
	p.nextNode++
	op.Node = node
	p.Nodes[node.ID] = node
	p.noteDirty(node.ID)
	p.sourceRef[name] = s
	p.addEdge(s)
	return s
}

func (p *Physical) addEdge(s *StreamRef) *Edge {
	e := &Edge{ID: p.nextEdge, Streams: []*StreamRef{s}}
	p.nextEdge++
	p.Edges[e.ID] = e
	p.streamEdge[s.ID] = e
	p.noteNewEdge(e.ID)
	return e
}

// shareClass computes the ∼ signature of op's output (§3.2): a selection's
// output is sharable with its input; otherwise the class is determined by
// the operator definition and the classes of the inputs.
func (p *Physical) shareClass(op *Op, ins []*StreamRef) string {
	if op.Def.Kind == KindSelect {
		return ins[0].ShareClass
	}
	parts := make([]string, 0, len(ins)+1)
	parts = append(parts, op.Def.Key())
	for _, s := range ins {
		parts = append(parts, s.ShareClass)
	}
	return "(" + strings.Join(parts, "~") + ")"
}

// outputSchema derives the schema of an operator's output stream.
func outputSchema(d *Def, ins []*StreamRef) (*stream.Schema, error) {
	schemas := make([]*stream.Schema, len(ins))
	for i, s := range ins {
		schemas[i] = s.Schema
	}
	return OutputSchema(d, schemas)
}

// SchemaOf computes the output schema of a logical tree under a source
// catalog (used by the query-language binder).
func SchemaOf(l *Logical, catalog map[string]SourceDecl) (*stream.Schema, error) {
	if l.Def.Kind == KindSource {
		decl, ok := catalog[l.Source]
		if !ok {
			return nil, fmt.Errorf("unknown source stream %q", l.Source)
		}
		return decl.Schema, nil
	}
	ins := make([]*stream.Schema, len(l.Children))
	for i, c := range l.Children {
		s, err := SchemaOf(c, catalog)
		if err != nil {
			return nil, err
		}
		ins[i] = s
	}
	return OutputSchema(l.Def, ins)
}

// OutputSchema derives the schema of an operator's output from its input
// schemas.
func OutputSchema(d *Def, ins []*stream.Schema) (*stream.Schema, error) {
	switch d.Kind {
	case KindSelect:
		return ins[0], nil
	case KindProject:
		attrs := make([]string, d.Map.Arity())
		for i := range attrs {
			attrs[i] = fmt.Sprintf("x%d", i)
		}
		return stream.NewSchema("proj", attrs...)
	case KindAgg:
		in := ins[0]
		attrs := make([]string, 0, len(d.GroupBy)+1)
		seen := map[string]bool{}
		for _, g := range d.GroupBy {
			if g < 0 || g >= in.Arity() {
				return nil, fmt.Errorf("group-by attribute %d out of range for schema %s", g, in.Name)
			}
			attrs = append(attrs, in.Attrs[g])
			seen[in.Attrs[g]] = true
		}
		if d.AggAttr < 0 || d.AggAttr >= in.Arity() {
			return nil, fmt.Errorf("aggregate attribute %d out of range for schema %s", d.AggAttr, in.Name)
		}
		val := in.Attrs[d.AggAttr]
		if seen[val] {
			val = d.Agg.String() + "_" + val
		}
		attrs = append(attrs, val)
		return stream.NewSchema("agg_"+in.Name, attrs...)
	case KindJoin, KindSeq, KindMu:
		return ins[0].Concat(ins[1], "r_"), nil
	}
	return nil, fmt.Errorf("no output schema for kind %s", d.Kind)
}

// ---------------------------------------------------------------------------
// Accessors used by the rule engine, the lowering step, and tests
// ---------------------------------------------------------------------------

// EdgeOf returns the edge carrying stream s and the stream's membership
// position on it.
func (p *Physical) EdgeOf(s *StreamRef) (*Edge, int) {
	e := p.streamEdge[s.ID]
	if e == nil {
		return nil, -1
	}
	return e, e.Pos(s)
}

// StreamEdge returns the edge carrying stream s (nil if none): EdgeOf
// without the position scan over the edge's streams.
func (p *Physical) StreamEdge(s *StreamRef) *Edge { return p.streamEdge[s.ID] }

// Consumers returns the operators reading stream s.
func (p *Physical) Consumers(s *StreamRef) []*Op {
	return p.consumersOf[s.ID]
}

// OutputOf returns the output stream of query id (nil if unknown).
func (p *Physical) OutputOf(queryID int) *StreamRef { return p.outStream[queryID] }

// OutputQueries returns, for stream s, the IDs of queries whose output is
// s, in ascending order.
func (p *Physical) OutputQueries(s *StreamRef) []int {
	ids := slices.Clone(p.outQueries[s.ID])
	sort.Ints(ids)
	return ids
}

// setOutput registers s as query qid's output stream in both directions.
func (p *Physical) setOutput(qid int, s *StreamRef) {
	p.outStream[qid] = s
	p.outQueries[s.ID] = append(p.outQueries[s.ID], qid)
}

// dropOutput unregisters query qid's output stream.
func (p *Physical) dropOutput(qid int) {
	s := p.outStream[qid]
	if s == nil {
		return
	}
	delete(p.outStream, qid)
	ids := slices.DeleteFunc(p.outQueries[s.ID], func(id int) bool { return id == qid })
	if len(ids) == 0 {
		delete(p.outQueries, s.ID)
	} else {
		p.outQueries[s.ID] = ids
	}
}

// SourceStream returns the stream of the named source (nil if unused).
func (p *Physical) SourceStream(name string) *StreamRef { return p.sourceRef[name] }

// ---------------------------------------------------------------------------
// Plan rewriting primitives (the vocabulary of m-rule actions)
// ---------------------------------------------------------------------------

// MergeNodes merges the given nodes (all of the same kind) into a single
// m-op node implementing the union of their operators. Edges are left
// untouched: each operator keeps its own input and output streams. This is
// the action of the sτ rules (§2.3): "replacing that set of operators with
// a single m-op".
func (p *Physical) MergeNodes(nodes []*Node) (*Node, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("MergeNodes: empty set")
	}
	kind := nodes[0].Kind
	var ops []*Op
	for _, n := range nodes {
		if n.Kind != kind {
			return nil, fmt.Errorf("MergeNodes: mixed kinds %s and %s", kind, n.Kind)
		}
		if _, ok := p.Nodes[n.ID]; !ok {
			return nil, fmt.Errorf("MergeNodes: node %d not in plan", n.ID)
		}
		ops = append(ops, n.Ops...)
	}
	if len(nodes) == 1 {
		return nodes[0], nil
	}
	merged := &Node{ID: p.nextNode, Kind: kind, Ops: ops}
	p.nextNode++
	for _, n := range nodes {
		delete(p.Nodes, n.ID)
		p.noteRemovedNode(n.ID)
	}
	for _, o := range ops {
		o.Node = merged
	}
	p.Nodes[merged.ID] = merged
	p.noteDirty(merged.ID)
	return merged, nil
}

// CollapseOps implements common-subexpression elimination: all ops must
// have identical definitions and read the same streams. The first op is
// kept; consumers of the others' outputs are rewired to the kept op's
// output stream, query outputs are remapped, and the redundant ops are
// removed from their nodes (empty nodes are deleted). Used by s; and sµ
// (§4.3, prefix state merging) and to share identical aggregates (Fig 6).
//
//rumor:allow deadexport reference implementation: the one-group form of CollapseGroups the CSE tests drive
func (p *Physical) CollapseOps(ops []*Op) (*Op, error) {
	if err := p.CollapseGroups([][]*Op{ops}); err != nil {
		return nil, err
	}
	return ops[0], nil
}

// CollapseGroups applies CollapseOps to each of a list of disjoint groups,
// each valid on the plan as given, with the same result as collapsing them
// one after the other. All groups are collapsed together, so each
// consumer, share-class, edge and node list is filtered once for the whole
// batch instead of once per group or per op.
func (p *Physical) CollapseGroups(groups [][]*Op) error {
	deadOps := make(map[*Op]bool)
	deadStreams := make(map[*StreamRef]bool)
	for _, ops := range groups {
		if err := checkCollapse(ops); err != nil {
			return err
		}
		for _, o := range ops[1:] {
			deadOps[o] = true
			deadStreams[o.Out] = true
		}
	}
	// The lists to filter; each is filtered once, in any order.
	classes := make(map[string]bool)
	edges := make(map[*Edge]bool)
	nodes := make(map[*Node]bool)
	for _, ops := range groups {
		keep := ops[0]
		for _, o := range ops[1:] {
			o.Def.shareKey(keep.Def)
			dead := o.Out
			if dead.ShareClass != "" {
				classes[dead.ShareClass] = true
			}
			p.noteDroppedStream(dead.ID)
			// Rewire consumers of the dead stream to keep.Out. A consumer
			// that is itself redundant in another group is dropped with
			// its group, whichever of the two comes first.
			for _, c := range p.consumersOf[dead.ID] {
				if deadOps[c] {
					continue
				}
				for i, s := range c.In {
					if s == dead {
						c.In[i] = keep.Out
					}
				}
				p.consumersOf[keep.Out.ID] = append(p.consumersOf[keep.Out.ID], c)
				p.noteDirty(c.Node.ID)
			}
			delete(p.consumersOf, dead.ID)
			// Remap the dead stream's query outputs.
			if qids, ok := p.outQueries[dead.ID]; ok {
				for _, qid := range qids {
					p.outStream[qid] = keep.Out
				}
				p.outQueries[keep.Out.ID] = append(p.outQueries[keep.Out.ID], qids...)
				delete(p.outQueries, dead.ID)
			}
			if e := p.streamEdge[dead.ID]; e != nil {
				edges[e] = true
			}
			delete(p.streamEdge, dead.ID)
			nodes[o.Node] = true
		}
	}
	isDeadOp := func(o *Op) bool { return deadOps[o] }
	isDeadStream := func(s *StreamRef) bool { return deadStreams[s] }
	for class := range classes {
		p.dropClassStreams(class, isDeadStream)
	}
	// Remove the dead ops from their inputs' consumer indexes: the kept
	// ops' inputs, read after the rewiring above.
	ins := make(map[*StreamRef]bool)
	for _, ops := range groups {
		for _, in := range ops[0].In {
			ins[in] = true
		}
	}
	for in := range ins {
		p.consumersOf[in.ID] = slices.DeleteFunc(p.consumersOf[in.ID], isDeadOp)
	}
	// Drop the dead streams from their edges; an emptied edge goes.
	for e := range edges {
		e.Streams = slices.DeleteFunc(e.Streams, isDeadStream)
		if len(e.Streams) == 0 {
			delete(p.Edges, e.ID)
			p.noteRemovedEdge(e.ID)
		}
	}
	// Remove the dead ops from their nodes; an emptied node goes.
	for n := range nodes {
		n.Ops = slices.DeleteFunc(n.Ops, isDeadOp)
		if len(n.Ops) == 0 {
			delete(p.Nodes, n.ID)
			p.noteRemovedNode(n.ID)
		} else {
			p.noteDirty(n.ID)
		}
	}
	return nil
}

// checkCollapse verifies that ops is a valid CollapseOps group.
func checkCollapse(ops []*Op) error {
	if len(ops) == 0 {
		return fmt.Errorf("CollapseOps: empty set")
	}
	keep := ops[0]
	for _, o := range ops[1:] {
		if o.Def.Key() != keep.Def.Key() {
			return fmt.Errorf("CollapseOps: definitions differ: %s vs %s", o.Def.Key(), keep.Def.Key())
		}
		if len(o.In) != len(keep.In) {
			return fmt.Errorf("CollapseOps: arity mismatch")
		}
		for i := range o.In {
			if o.In[i] != keep.In[i] {
				return fmt.Errorf("CollapseOps: input streams differ")
			}
		}
	}
	return nil
}

// EncodeChannel merges the edges carrying the given streams into a single
// channel edge (§3.1). All streams must currently be on single-stream (or
// already-merged) edges produced by the same node, with union-compatible
// schemas — the channel-based MQO sharing criteria (§3.2) are checked by
// the rules, not here; this primitive only enforces structural sanity.
//
// In live mode (an active delta recording), a pre-existing channel that
// absorbs delta-new streams hands its tombstoned slots to the newcomers
// before growing: each reused slot's bit is scrubbed from the stored
// memberships of the running consumers (recorded as a ChannelRemap on the
// delta), so an add/remove/add cycle reclaims dead positions instead of
// widening every membership word forever.
func (p *Physical) EncodeChannel(streams []*StreamRef) (*Edge, error) {
	if len(streams) < 2 {
		return nil, fmt.Errorf("EncodeChannel: need at least 2 streams")
	}
	seenEdge := map[int]bool{}
	var edges []*Edge
	for _, s := range streams {
		e := p.streamEdge[s.ID]
		if e == nil {
			return nil, fmt.Errorf("EncodeChannel: stream %d has no edge", s.ID)
		}
		if !seenEdge[e.ID] {
			seenEdge[e.ID] = true
			edges = append(edges, e)
		}
	}
	var all []*StreamRef
	if p.rec != nil && len(edges) > 1 && !p.rec.NewEdges[edges[0].ID] && edges[0].IsChannel() {
		// Live growth of a pre-existing channel (the caller orders its
		// streams first): fill tombstoned slots with the incoming streams,
		// then append the rest. Reused slots are scrubbed: stored tuples
		// whose membership carried the dead stream's bit must not appear
		// to belong to the newcomer.
		base := edges[0]
		slots := append([]*StreamRef(nil), base.Streams...)
		var table []int
		for _, e := range edges[1:] {
			for _, s := range e.Streams {
				placed := false
				for i, old := range slots {
					if !old.Dead {
						continue
					}
					if table == nil {
						table = make([]int, len(base.Streams))
						for j := range table {
							table[j] = j
						}
					}
					table[i] = -1
					delete(p.streamEdge, old.ID)
					slots[i] = s
					placed = true
					break
				}
				if !placed {
					slots = append(slots, s)
				}
			}
		}
		if table != nil {
			p.noteRemap(base.ID, table, base.Streams)
		}
		all = slots
	} else {
		for _, e := range edges {
			all = append(all, e.Streams...)
		}
	}
	for _, s := range all[1:] {
		if !s.Schema.UnionCompatible(all[0].Schema) {
			return nil, fmt.Errorf("EncodeChannel: schemas not union-compatible (%d vs %d attrs)",
				s.Schema.Arity(), all[0].Schema.Arity())
		}
	}
	ch := &Edge{ID: p.nextEdge, Streams: all}
	p.nextEdge++
	// For the live channel gate, the merged edge counts as delta-new only
	// when every absorbed edge was delta-new: a grown pre-existing channel
	// keeps its "existing" status, so a later rule round cannot fold it
	// into another pre-existing channel (which would shift the stored
	// membership positions of one of them).
	allNew := p.rec != nil
	for eid := range seenEdge {
		if p.rec != nil && !p.rec.NewEdges[eid] {
			allNew = false
		}
	}
	for eid := range seenEdge {
		delete(p.Edges, eid)
		p.noteRemovedEdge(eid)
	}
	p.Edges[ch.ID] = ch
	if allNew {
		p.noteNewEdge(ch.ID)
	}
	for _, s := range all {
		p.streamEdge[s.ID] = ch
		if s.Dead {
			continue // tombstone: producer GC'd, no consumers
		}
		// Re-lower everything wired to the re-encoded streams: their edge
		// identity (and possibly their membership position) changed.
		if s.Producer != nil {
			p.noteDirty(s.Producer.Node.ID)
		}
		for _, c := range p.consumersOf[s.ID] {
			p.noteDirty(c.Node.ID)
		}
	}
	return ch, nil
}

// CompactChannels re-encodes every channel whose tombstoned slots dominate
// (live streams < half the total slots): dead positions are dropped, the
// surviving streams are packed down in order, and the position remap is
// recorded on the active delta so the engines rewrite the memberships
// stored inside the running m-ops before re-lowering the consumers. When a
// channel is left with a single live stream, one tombstone slot is kept
// (scrubbed of its stored bits) so the edge stays structurally a channel —
// running operators keep their membership-gated lowering, and the slot is
// the first candidate for reuse on a later add. It returns the number of
// edges compacted.
//
// Compaction preserves the steady-state width invariant live/total ≥ 1/2:
// an edge only ever drops below it transiently, inside the maintenance
// operation that immediately compacts it.
func (p *Physical) CompactChannels() int {
	// Candidate scan first: the common removal leaves no channel below
	// threshold, and must not pay a sort over every edge.
	var ids []int
	for id, e := range p.Edges {
		if !e.IsChannel() {
			continue
		}
		live := e.LiveStreams()
		if live > 0 && live*2 < len(e.Streams) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	sort.Ints(ids) // deterministic delta order
	for _, id := range ids {
		e := p.Edges[id]
		p.compactEdge(e, e.LiveStreams())
	}
	return len(ids)
}

// compactEdge rewrites one channel in place: live streams keep their
// relative order at packed positions, dead slots are dropped (their bits
// scrubbed from stored memberships via the recorded remap). With a single
// live stream one dead slot survives, scrubbed, to keep the edge a channel.
func (p *Physical) compactEdge(e *Edge, live int) {
	table := make([]int, len(e.Streams))
	kept := make([]*StreamRef, 0, live+1)
	pad := 0
	if live < 2 {
		pad = 2 - live
	}
	for i, s := range e.Streams {
		if s.Dead {
			if pad > 0 {
				// Tombstone kept for channel-ness; its stored bits are
				// scrubbed (no operator gates on a dead position).
				pad--
				table[i] = -1
				kept = append(kept, s)
				continue
			}
			table[i] = -1
			delete(p.streamEdge, s.ID)
			continue
		}
		table[i] = len(kept)
		kept = append(kept, s)
	}
	p.noteRemap(e.ID, table, e.Streams)
	e.Streams = kept
	// Re-lower everything wired to the channel: membership positions (and
	// the channel's width) changed.
	for _, s := range kept {
		if s.Dead {
			continue
		}
		if s.Producer != nil {
			p.noteDirty(s.Producer.Node.ID)
		}
		for _, c := range p.consumersOf[s.ID] {
			p.noteDirty(c.Node.ID)
		}
	}
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// Stats summarizes a plan.
type Stats struct {
	Queries  int
	Nodes    int
	Ops      int
	Edges    int
	Channels int // edges encoding >1 stream
	Streams  int
	// LiveSlots / TotalSlots measure channel membership width: live
	// streams vs total slots (including tombstones from live query
	// removal) summed over all channel edges. Compaction keeps
	// LiveSlots/TotalSlots ≥ 1/2 in steady state.
	LiveSlots  int
	TotalSlots int
	// ChannelWords is the membership storage width summed over channel
	// edges: ceil(TotalSlots/64) per channel. SpilledChannels counts
	// channels wider than one inline word — memberships on them live on
	// the heap and every Test costs a bounds-checked slice access, the
	// plan-level view of the engine_member_spills_total runtime counter.
	ChannelWords    int
	SpilledChannels int
	// BlockEdges counts edges statically capable of carrying columnar
	// blocks: every producer is a source or selection (the m-op kinds whose
	// outputs are blocks), every consumer is a selection, ; or µ (the kinds
	// that take blocks), and the channel width fits one inline membership
	// word. The engine additionally gates on per-instance predicate
	// kernelizability at lowering, so this is an upper bound on the edges
	// the block path actually uses.
	BlockEdges int
}

// Stats returns summary counts for the plan.
func (p *Physical) Stats() Stats {
	st := Stats{Queries: len(p.Queries), Nodes: len(p.Nodes), Edges: len(p.Edges)}
	for _, n := range p.Nodes {
		st.Ops += len(n.Ops)
	}
	for _, e := range p.Edges {
		live := e.LiveStreams()
		st.Streams += live
		if live > 1 {
			st.Channels++
		}
		if e.IsChannel() {
			st.LiveSlots += live
			st.TotalSlots += len(e.Streams)
			words := (len(e.Streams) + 63) / 64
			st.ChannelWords += words
			if words > 1 {
				st.SpilledChannels++
			}
		}
	}
	capable := make(map[int]bool, len(p.Edges))
	for _, e := range p.Edges {
		ok := len(e.Streams) <= 64
		for _, s := range e.Streams {
			if s.Producer != nil && s.Producer.Def.Kind != KindSource && s.Producer.Def.Kind != KindSelect {
				ok = false
				break
			}
		}
		capable[e.ID] = ok
	}
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindSource, KindSelect, KindSeq, KindMu:
			continue
		}
		for _, o := range n.Ops {
			for _, in := range o.In {
				if ed := p.streamEdge[in.ID]; ed != nil {
					capable[ed.ID] = false
				}
			}
		}
	}
	for _, ok := range capable {
		if ok {
			st.BlockEdges++
		}
	}
	return st
}

// Validate checks structural invariants: every op input stream is carried
// by an edge, every node's ops agree with its kind, every query has an
// output stream that exists, and the op graph is acyclic.
func (p *Physical) Validate() error {
	for _, n := range p.Nodes {
		for _, o := range n.Ops {
			if o.Node != n {
				return fmt.Errorf("op %d has stale node pointer", o.ID)
			}
			if o.Def.Kind != n.Kind {
				return fmt.Errorf("node %d kind %s holds op %d of kind %s", n.ID, n.Kind, o.ID, o.Def.Kind)
			}
			for _, in := range o.In {
				if p.streamEdge[in.ID] == nil {
					return fmt.Errorf("op %d reads stream %d with no edge", o.ID, in.ID)
				}
			}
			if o.Out != nil && p.streamEdge[o.Out.ID] == nil {
				return fmt.Errorf("op %d writes stream %d with no edge", o.ID, o.Out.ID)
			}
		}
	}
	for _, q := range p.Queries {
		out := p.outStream[q.ID]
		if out == nil {
			return fmt.Errorf("query %d has no output stream", q.ID)
		}
		if p.streamEdge[out.ID] == nil {
			return fmt.Errorf("query %d output stream %d has no edge", q.ID, out.ID)
		}
	}
	// Acyclicity over nodes via producer links.
	state := map[*Node]int{} // 0 unvisited, 1 in stack, 2 done
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("cycle through node %d", n.ID)
		case 2:
			return nil
		}
		state[n] = 1
		for _, o := range n.Ops {
			for _, in := range o.In {
				if in.Producer != nil {
					if err := visit(in.Producer.Node); err != nil {
						return err
					}
				}
			}
		}
		state[n] = 2
		return nil
	}
	for _, n := range p.Nodes {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// String renders a compact plan description, deterministic across runs.
func (p *Physical) String() string {
	var b strings.Builder
	for _, id := range sortedKeys(p.Nodes) {
		n := p.Nodes[id]
		fmt.Fprintf(&b, "node %d [%s] ops=%d\n", n.ID, n.Kind, len(n.Ops))
		for _, o := range n.Ops {
			ins := make([]string, len(o.In))
			for i, s := range o.In {
				ins[i] = fmt.Sprintf("s%d", s.ID)
			}
			fmt.Fprintf(&b, "  op %d q%d %s (%s) -> s%d\n",
				o.ID, o.QueryID, o.Def.Key(), strings.Join(ins, ","), o.Out.ID)
		}
	}
	for _, id := range sortedKeys(p.Edges) {
		e := p.Edges[id]
		ss := make([]string, len(e.Streams))
		for i, s := range e.Streams {
			ss[i] = fmt.Sprintf("s%d", s.ID)
			if s.Dead {
				ss[i] += "†" // tombstoned by live query removal
			}
		}
		fmt.Fprintf(&b, "edge %d {%s}\n", e.ID, strings.Join(ss, ","))
	}
	return b.String()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
