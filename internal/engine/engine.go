// Package engine executes RUMOR physical plans: it lowers every plan node
// to an executable m-op, wires the channel edges, and pushes source tuples
// through the DAG in timestamp order. M-ops are the scheduling units
// (§2.2); propagation is a FIFO work queue, single-threaded, matching the
// paper's prototype execution model and its events/second throughput
// metric (§5). Results on an edge that no m-op consumes skip the queue:
// they reach their sinks when the activation that built them returns.
//
// The delivery fast path is allocation-free: edge routing uses dense
// slices indexed by edge ID (no map lookups per delivery), source
// memberships are interned singletons computed at lowering time, and the
// work queue's backing array is recycled across drains.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mop"
	"repro/internal/obs"
	"repro/internal/stream"
)

// portRef addresses one input port of a lowered node.
type portRef struct {
	node *runtimeNode
	port int
}

type runtimeNode struct {
	id   int
	m    mop.MOp
	in   []*core.Edge  // input port → edge (consumer registration)
	out  []*core.Edge  // output port → edge
	emit mop.Emit      // built once at lowering: enqueues on out[port]
	uses []mop.PortUse // input port → how delivered tuples are used
	// sinkOnly is, per output port, whether the edge has sinks and no
	// consumer: emit parks a tuple bound for such a port in Engine.results
	// instead of enqueueing it. count is, per output port, the result
	// counter of a count-only edge: sink-only with exactly one plain sink.
	// While no result callback is installed, emit bumps it instead, and
	// parks the tuple only to recycle it if it is Owned (nil: park for
	// delivery). A window-prefix m-op (prefix) is bound to both: its plain
	// groups whose every port is count-only count a match without building
	// it, and fold the counts into these counters when the drain ends
	// (Engine.bindSinks). rebuildRoutes resets both for every node, and
	// the next drain rebinds, since count points into routes.
	sinkOnly []bool
	count    []*int64
	// ports[i] is i, so a parked result names one port as ports[i:i+1].
	ports []int
	// prefix is the m-op when it emits by window prefix (;, µ, ⨝), else
	// nil; park parks one of its results once for a whole prefix.
	prefix mop.PrefixMOp
	park   func(t *stream.Tuple, ports []int)
	// bm is non-nil when the m-op takes the vectorized path (implements
	// BatchMOp and reported BlockReady at lowering); emitB is its block
	// emission closure, handed to ProcessBlock beside emit. Edges into a bm
	// node carry blocks, everything else goes through the block→scalar
	// adapter (see block.go).
	bm        mop.BatchMOp
	emitB     mop.EmitBlock
	processed int64 // tuples delivered to this m-op
	emitted   int64 // tuples produced by this m-op
	// busyNS is a sampled estimate of time spent in this m-op's Process:
	// while telemetry is enabled, every busySample-th delivery is timed and
	// scaled up. Sampling keeps the clock off the per-tuple path.
	busyNS int64
}

// busyMask selects one delivery in 1024 for busy-time sampling; the
// measured duration is scaled by the same factor.
const busyMask = 1<<10 - 1

// sink records that a stream on an edge is the output of some queries.
// Results are counted per sink, not per query: n is what the sink
// delivered since the routes were last rebuilt, shared by all its queries,
// and a query's count is its folded base plus its current sink's n, summed
// on read (ResultCount).
type sink struct {
	pos     int // membership position on the edge, -1 for plain
	queries []int
	n       int64
}

// sourceInfo is the precomputed per-source injection state: the carrying
// edge, the declared arity every ingested row must have and, when the
// source has been encoded into a channel, the interned singleton
// membership of its position.
type sourceInfo struct {
	edge   *core.Edge
	arity  int
	member *bitset.Set // nil for plain (non-channel) source edges
}

// ErrArity reports an ingested row whose number of values is not the
// declared arity of its source. The call that returns it has ingested
// nothing.
var ErrArity = errors.New("row arity does not match the source schema")

func arityErr(source string, want, got int) error {
	return fmt.Errorf("engine: source %q: %w: %d values, schema has %d", source, ErrArity, got, want)
}

type namedSource struct {
	name string
	info sourceInfo
}

// maxLinearSources bounds the linear source lookup table.
const maxLinearSources = 8

// lookupSource resolves a source name to its injection state.
func (e *Engine) lookupSource(name string) (sourceInfo, bool) {
	for i := range e.srcList {
		if e.srcList[i].name == name {
			return e.srcList[i].info, true
		}
	}
	si, ok := e.sources[name]
	return si, ok
}

// edgeRoute is the dense per-edge routing entry: the query sinks and the
// consuming m-op ports of one edge, resolved once at lowering time.
type edgeRoute struct {
	sinks     []sink
	consumers []portRef
	// releasable: every consumer port only reads delivered tuples, so an
	// Owned tuple can return to the tuple pool after its delivery. A result
	// callback only borrows the tuple until it returns.
	releasable bool
	// clearsOwned: a consumer stores delivered tuples (or several could
	// re-emit them), so an arriving tuple stops being singly referenced
	// and must shed its Owned flag before the consumers run.
	clearsOwned bool
	hasSink     bool

	// Block routing: consumers split by path. A block arriving on this
	// edge is handed whole to each batch consumer and materialized into
	// pooled row tuples once for the scalar consumers (the block→scalar
	// adapter). rowReleasable/rowClearsOwned are the release analysis of
	// deliver() restricted to the scalar consumers, applied to those
	// materialized rows.
	batchConsumers  []portRef
	scalarConsumers []portRef
	rowReleasable   bool
	rowClearsOwned  bool
}

// Engine is an executable instance of a physical plan.
type Engine struct {
	plan *core.Physical

	// routes is the dense routing table indexed by edge ID: every delivery
	// costs one slice load instead of two map lookups.
	routes []edgeRoute

	sources map[string]sourceInfo
	// srcList mirrors sources for plans with few source streams: a linear
	// scan with pointer-fast string compares beats a map hash per Push.
	srcList []namedSource
	nodes   []*runtimeNode

	// OnResult, if set, receives every query result tuple, once per query
	// of the sink that delivered it. The tuple is borrowed, and so are its
	// values: vals is valid until the callback returns; copy it to keep it.
	// Results on an edge with no consumer are delivered when the activation
	// that built them returns, and then recycled. Counting does not need a
	// callback: counts are kept per sink and summed on read, and while
	// OnResult is nil a count-only edge (no consumer, one plain sink) is
	// counted at emission and skips the work queue. A ;, µ or ⨝ match
	// whose window prefix reaches only count-only edges is not even built:
	// it is counted per prefix and folded into the sink counters when the
	// drain ends, so counts are exact whenever the engine is quiescent.
	OnResult func(queryID int, t *stream.Tuple)

	// base is, per query ID (dense), the count folded in from the sinks of
	// earlier routing tables; sinkOf is the query's current sink, nil once
	// the query is removed.
	base   []int64
	sinkOf []*sink
	// results holds the tuples emitted onto sink-only edges by the
	// activation in flight, with no ports for the Owned ones counted at
	// emission. They are delivered and recycled when the activation
	// returns (deliverResults), not at emission: a forwarding m-op may emit
	// its input while later consumers of that input still have to read it.
	// The two kinds share the list so that the pool sees the same
	// recycling order with and without a result callback.
	results []parked
	// counting lists the window-prefix nodes with a counting group, whose
	// counts drain folds in when it ends. bound is whether the nodes are
	// bound to the current routes, and boundCallback whether a result
	// callback was installed when they were (bindSinks).
	counting      []*runtimeNode
	bound         bool
	boundCallback bool

	// pool is the engine-private tuple pool: every tuple the engine's
	// m-ops build or recycle stays within the engine's single-threaded
	// execution domain, so high shard counts cause no cross-CPU pool
	// traffic (ROADMAP: per-shard tuple pools).
	pool *stream.Pool
	// parkPool holds the results parked once for a window prefix: they are
	// drawn from it and recycled into it, so installing a result callback
	// leaves pool's traffic as it is without one, when such a match is
	// counted and never built.
	parkPool *stream.Pool

	queue []queued
	// qHasBlocks notes that the current drain carried at least one block,
	// switching the end-of-drain accounting to the per-entry walk that
	// recycles blocks; pure scalar drains keep their bulk path.
	qHasBlocks bool

	// Vectorized-path state. bpool recycles block headers and columns and
	// interns the membership sets of rows leaving the columnar
	// representation (the block→scalar adapter and the ;/µ kernel share the
	// one cache).
	bpool           *stream.BlockPool
	blocksProcessed int64 // blocks delivered along block-capable edges

	// Telemetry. obsOn caches obs.Enabled() — refreshed once per drain, so
	// the per-tuple cost of disabled telemetry inside the delivery loop is
	// a predicted branch on a plain bool. The counters are plain fields:
	// the engine is single-threaded per shard, and they are folded into a
	// Snapshot only at quiesce barriers (MetricsInto).
	obsOn         bool
	delivered     int64 // tuples delivered (edge traversals drained)
	memberSpills  int64 // delivered channel tuples whose membership spilled past one word
	replayedItems int64 // stored items replayed under new members on live re-merge
}

type queued struct {
	edge *core.Edge
	t    *stream.Tuple
	b    *stream.Block // non-nil for a block delivery (t is then nil)
}

// parked is a result held until its activation returns, bound for the
// sinks of node's output ports in ports: one port for an emitted result,
// a window prefix for a result parked once. An Owned result counted at
// emission has no ports; it is parked only to be recycled.
type parked struct {
	t     *stream.Tuple
	node  *runtimeNode
	ports []int
	once  bool // parked once for a window prefix: t returns to parkPool
}

// New lowers the plan. The plan must not be mutated afterwards except by
// live maintenance, whose delta the engine then splices (ApplyDelta).
// Lowering is reusable: New may be called several times on one plan (each engine
// owns independent operator state and counters), which is how the sharded
// runtime builds its per-shard replicas.
func New(p *core.Physical) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: invalid plan: %w", err)
	}
	e := &Engine{plan: p, pool: stream.NewPool(), parkPool: stream.NewPool(), bpool: stream.NewBlockPool()}
	for _, n := range p.Nodes {
		if n.Kind == core.KindSource {
			continue // sources are injected directly onto their edges
		}
		rn, err := e.lowerNode(n)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, rn)
	}
	sort.Slice(e.nodes, func(i, j int) bool { return e.nodes[i].id < e.nodes[j].id })
	e.rebuildRoutes()
	return e, nil
}

// lowerNode compiles one plan node into a runtime node with its emit
// closure (built once so the delivery loop allocates no closures).
func (e *Engine) lowerNode(n *core.Node) (*runtimeNode, error) {
	low, err := mop.Lower(e.plan, n, e.pool)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	rn := &runtimeNode{id: n.ID, m: low.MOp, in: low.InEdges, out: low.OutEdges, uses: low.PortUses}
	rn.ports = make([]int, len(rn.out))
	for i := range rn.ports {
		rn.ports[i] = i
	}
	rn.emit = func(outPort int, out *stream.Tuple) {
		rn.emitted++
		switch {
		case !rn.sinkOnly[outPort]:
			e.enqueue(rn.out[outPort], out)
		case e.OnResult == nil && rn.count[outPort] != nil:
			e.countEmitted(rn.count[outPort], out)
		default:
			e.results = append(e.results, parked{t: out, node: rn, ports: rn.ports[outPort : outPort+1]})
		}
	}
	if pm, ok := low.MOp.(mop.PrefixMOp); ok {
		rn.prefix = pm
		rn.park = func(out *stream.Tuple, ports []int) {
			rn.emitted += int64(len(ports))
			e.results = append(e.results, parked{t: out, node: rn, ports: ports, once: true})
		}
	}
	if bm, ok := low.MOp.(mop.BatchMOp); ok && bm.BlockReady() {
		rn.bm = bm
		rn.emitB = func(outPort int, b *stream.Block) {
			rn.emitted += int64(b.SelCount())
			e.enqueueBlock(rn.out[outPort], b)
		}
	}
	return rn, nil
}

// rebuildRoutes recomputes the dense routing state — per-edge consumer
// lists, query sinks, source injection info, release analysis, and the
// count-only output ports — from the current plan and runtime nodes; the
// next drain binds the window-prefix m-ops to them. It runs at lowering
// time and once per live plan delta, never on the push path.
func (e *Engine) rebuildRoutes() {
	p := e.plan
	e.foldSinks()
	maxEdge, maxQuery := -1, len(e.base)-1
	for id := range p.Edges {
		if id > maxEdge {
			maxEdge = id
		}
	}
	for _, q := range p.Queries {
		if q.ID > maxQuery {
			maxQuery = q.ID
		}
	}
	e.routes = make([]edgeRoute, maxEdge+1)
	// Folded counts are kept across deltas: a removed query's slot holds
	// its final count, a query added live starts at zero.
	if maxQuery+1 > len(e.base) {
		e.base = append(e.base, make([]int64, maxQuery+1-len(e.base))...)
		e.sinkOf = append(e.sinkOf, make([]*sink, maxQuery+1-len(e.sinkOf))...)
	}
	clear(e.sinkOf)
	for _, rn := range e.nodes {
		for port, in := range rn.in {
			r := &e.routes[in.ID]
			r.consumers = append(r.consumers, portRef{node: rn, port: port})
			if rn.bm != nil {
				r.batchConsumers = append(r.batchConsumers, portRef{node: rn, port: port})
			} else {
				r.scalarConsumers = append(r.scalarConsumers, portRef{node: rn, port: port})
			}
		}
	}
	// Source edges, indexed by every source name they carry, with the
	// membership each plain Push must attach precomputed.
	e.sources = make(map[string]sourceInfo)
	e.srcList = e.srcList[:0]
	for name := range p.Catalog {
		s := p.SourceStream(name)
		if s == nil {
			continue
		}
		edge, pos := p.EdgeOf(s)
		si := sourceInfo{edge: edge, arity: p.Catalog[name].Schema.Arity()}
		if edge.IsChannel() {
			si.member = bitset.Singleton(pos)
		}
		e.sources[name] = si
	}
	if len(e.sources) <= maxLinearSources {
		for name, si := range e.sources {
			e.srcList = append(e.srcList, namedSource{name: name, info: si})
		}
	}
	// Query sinks.
	for _, q := range p.Queries {
		out := p.OutputOf(q.ID)
		edge, pos := p.EdgeOf(out)
		if !edge.IsChannel() {
			pos = -1
		}
		r := &e.routes[edge.ID]
		found := false
		for i := range r.sinks {
			if r.sinks[i].pos == pos {
				r.sinks[i].queries = append(r.sinks[i].queries, q.ID)
				found = true
				break
			}
		}
		if !found {
			r.sinks = append(r.sinks, sink{pos: pos, queries: []int{q.ID}})
		}
	}
	// Only now are the sinks in place: appending to an edge's sinks may
	// move them.
	for i := range e.routes {
		for j := range e.routes[i].sinks {
			s := &e.routes[i].sinks[j]
			for _, qid := range s.queries {
				e.sinkOf[qid] = s
			}
		}
	}
	// Release analysis. An edge is releasable when every consumer port
	// only reads delivered tuples. Ownership may pass through exactly one
	// forwarding consumer (a selection re-emitting the tuple); with a
	// storing consumer or several forwarders, the tuple stops being singly
	// referenced and sheds its Owned flag at delivery. Sinks do not count:
	// a result callback only borrows the tuple, and it returns before any
	// consumer runs.
	for i := range e.routes {
		r := &e.routes[i]
		r.hasSink = len(r.sinks) > 0
		r.releasable = true
		forwarders := 0
		for _, c := range r.consumers {
			use := mop.PortStores
			if c.port < len(c.node.uses) {
				use = c.node.uses[c.port]
			}
			switch use {
			case mop.PortStores:
				r.clearsOwned = true
				r.releasable = false
			case mop.PortForwards:
				forwarders++
				r.releasable = false
			}
		}
		if forwarders > 1 {
			r.clearsOwned = true
		}
		// Same analysis restricted to the scalar consumers: it governs the
		// pooled row tuples the block→scalar adapter materializes.
		r.rowReleasable = true
		rowForwarders := 0
		for _, c := range r.scalarConsumers {
			use := mop.PortStores
			if c.port < len(c.node.uses) {
				use = c.node.uses[c.port]
			}
			switch use {
			case mop.PortStores:
				r.rowClearsOwned = true
				r.rowReleasable = false
			case mop.PortForwards:
				rowForwarders++
				r.rowReleasable = false
			}
		}
		if rowForwarders > 1 {
			r.rowClearsOwned = true
		}
	}
	// Count-only and sink-only output ports. A count-only port's results
	// are counted, not delivered, while no result callback is installed;
	// a window-prefix m-op's group whose every port is count-only then
	// builds no result at all (bindSinks).
	for _, rn := range e.nodes {
		if len(rn.count) != len(rn.out) {
			rn.count = make([]*int64, len(rn.out))
			rn.sinkOnly = make([]bool, len(rn.out))
		}
		for port, out := range rn.out {
			r := &e.routes[out.ID]
			rn.count[port] = nil
			rn.sinkOnly[port] = r.hasSink && len(r.consumers) == 0
			if rn.sinkOnly[port] && len(r.sinks) == 1 && r.sinks[0].pos < 0 {
				rn.count[port] = &r.sinks[0].n
			}
		}
	}
	e.bound = false
}

// bindSinks binds every window-prefix m-op to its output ports' sinks and
// collects the nodes that count. Counting is bound only while no result
// callback is installed, so drain binds afresh after every route rebuild
// and whenever OnResult has been set or cleared since.
func (e *Engine) bindSinks() {
	e.bound, e.boundCallback = true, e.OnResult != nil
	clear(e.counting)
	e.counting = e.counting[:0]
	for _, rn := range e.nodes {
		if rn.prefix == nil {
			continue
		}
		s := mop.Sinks{SinkOnly: rn.sinkOnly, Park: rn.park, ParkPool: e.parkPool}
		if !e.boundCallback {
			s.Count = rn.count
		}
		if rn.prefix.BindSinks(s) {
			e.counting = append(e.counting, rn)
		}
	}
}

// foldSinks moves every sink's count into its queries' base counts before
// the routing table that holds the sinks is replaced.
func (e *Engine) foldSinks() {
	for i := range e.routes {
		for j := range e.routes[i].sinks {
			s := &e.routes[i].sinks[j]
			for _, qid := range s.queries {
				e.base[qid] += s.n
			}
			s.n = 0
		}
	}
}

// ApplyDelta splices a live plan delta into the running engine: channel
// position remaps recorded by compaction / slot reuse are pushed through
// the stored memberships of the running m-ops, runtime nodes of removed
// plan nodes are dropped (their unadopted operator state is discarded),
// dirty nodes are re-lowered with their predecessors' state migrated in
// (package mop), freshly merged channel members replay the shared stores
// they joined, and the dense routing tables are recomputed. The engine
// must be quiescent (no in-flight drain); the push path itself is
// untouched by delta application.
func (e *Engine) ApplyDelta(d *core.Delta) error {
	if d == nil || d.Empty() {
		return nil
	}
	affected := make(map[int]bool, len(d.Dirty)+len(d.Removed))
	for id := range d.Dirty {
		affected[id] = true
	}
	for id := range d.Removed {
		affected[id] = true
	}
	var olds []mop.MOp
	counters := make(map[int]*runtimeNode)
	// kept is a fresh slice: e.nodes must stay intact until the delta is
	// known to apply cleanly, so an error return leaves the engine in its
	// pre-delta state (stale vs the plan, but internally consistent).
	kept := make([]*runtimeNode, 0, len(e.nodes))
	for _, rn := range e.nodes {
		if affected[rn.id] {
			olds = append(olds, rn.m)
			counters[rn.id] = rn
		} else {
			kept = append(kept, rn)
		}
	}
	reg := mop.NewStateRegistry(olds)
	// Channel compaction / slot reuse: rewrite the memberships stored
	// against the re-encoded channels before the state migrates into the
	// re-lowered consumers. Remaps apply in recording order (a channel may
	// be compacted and then grown within one delta).
	for _, cr := range d.Remaps {
		rm := mop.NewRemap(cr.Table)
		for _, t := range cr.Ops {
			reg.RemapMemberships(t.OpID, t.Side, rm)
		}
	}
	dirty := make([]int, 0, len(d.Dirty))
	for id := range d.Dirty {
		dirty = append(dirty, id)
	}
	sort.Ints(dirty)
	lowered := make(map[int]*runtimeNode, len(dirty))
	for _, id := range dirty {
		n, ok := e.plan.Nodes[id]
		if !ok {
			return fmt.Errorf("engine: dirty node %d not in plan", id)
		}
		if n.Kind == core.KindSource {
			continue
		}
		rn, err := e.lowerNode(n)
		if err != nil {
			return err
		}
		if err := reg.Adopt(&mop.Lowered{MOp: rn.m, InEdges: rn.in, OutEdges: rn.out, PortUses: rn.uses}); err != nil {
			return fmt.Errorf("engine: node %d: %w", id, err)
		}
		if old := counters[rn.id]; old != nil {
			rn.processed, rn.emitted, rn.busyNS = old.processed, old.emitted, old.busyNS
		}
		lowered[id] = rn
		kept = append(kept, rn)
	}
	reg.DiscardRest()
	if err := e.replayNewMembers(d, lowered); err != nil {
		return err
	}
	e.nodes = kept
	sort.Slice(e.nodes, func(i, j int) bool { return e.nodes[i].id < e.nodes[j].id })
	e.rebuildRoutes()
	return nil
}

// replayNewMembers implements full-window state replay on live re-merge:
// an operator whose input stream was created during the delta and encoded
// into a channel joined an existing shared state group cold — its
// membership position gates it out of every stored item. When the stored
// items carry enough content to re-evaluate the operator's gating chain,
// the group replays them under the new member's bit, so a mid-stream
// subscriber observes the full retained window from its first batch.
//
// Soundness gate: the channel's share class must be a single-source class
// ("src#..."), so every stream on it is that source or a selection chain
// over it and every stored item's content IS the source tuple the gating
// selections would have seen. For aggregation families — whose logs store
// only the group-by columns and the aggregated attribute — the gating
// predicates must additionally be evaluable over exactly those attributes.
// Channels over multi-source share labels ("src:...") or over derived
// operators are skipped: their stored contents differ per stream, so a
// replay would fabricate history (the member starts cold, as before).
func (e *Engine) replayNewMembers(d *core.Delta, lowered map[int]*runtimeNode) error {
	if len(d.NewStreams) == 0 {
		return nil
	}
	for id, rn := range lowered {
		n := e.plan.Nodes[id]
		if n == nil {
			continue
		}
		switch n.Kind {
		case core.KindAgg, core.KindJoin, core.KindSeq, core.KindMu:
		default:
			continue
		}
		var reg *mop.StateRegistry
		for _, o := range n.Ops {
			for side, in := range o.In {
				if !d.NewStreams[in.ID] {
					continue
				}
				edge, pos := e.plan.EdgeOf(in)
				if edge == nil || !edge.IsChannel() || pos < 0 {
					continue
				}
				keep, ok := replayKeep(o, in)
				if !ok {
					continue
				}
				if reg == nil {
					reg = mop.NewStateRegistry([]mop.MOp{rn.m})
				}
				cnt, err := reg.ReplayMember(o.ID, side, pos, keep)
				if err != nil {
					return fmt.Errorf("engine: replay op %d: %w", o.ID, err)
				}
				// Replays happen at churn rate, not tuple rate: count the
				// replayed window size unconditionally.
				e.replayedItems += int64(cnt)
			}
		}
	}
	return nil
}

// replayKeep builds the replay acceptance test for one new channel member:
// the conjunction of the selection predicates between the member's input
// stream and its source, evaluated against stored item content. It reports
// ok=false when the soundness gate fails (see replayNewMembers).
func replayKeep(o *core.Op, in *core.StreamRef) (func(t *stream.Tuple) bool, bool) {
	if !strings.HasPrefix(in.ShareClass, "src#") {
		return nil, false
	}
	var preds []expr.Pred
	cur := in
	for cur.Producer != nil && cur.Producer.Def.Kind == core.KindSelect {
		preds = append(preds, cur.Producer.Def.Pred)
		cur = cur.Producer.In[0]
	}
	if cur.Producer != nil && cur.Producer.Def.Kind != core.KindSource {
		return nil, false
	}
	if o.Def.Kind == core.KindAgg {
		// The window reconstructs only the group-by columns and the
		// aggregated attribute; the gating predicates must not read
		// anything else.
		known := map[int]bool{o.Def.AggAttr: true}
		for _, a := range o.Def.GroupBy {
			known[a] = true
		}
		for _, p := range preds {
			attrs, ok := expr.PredAttrs(p)
			if !ok {
				return nil, false
			}
			for _, a := range attrs {
				if !known[a] {
					return nil, false
				}
			}
		}
	}
	return func(t *stream.Tuple) bool {
		for _, p := range preds {
			if !p.Eval(t) {
				return false
			}
		}
		return true
	}, true
}

// Push injects a tuple into the named source stream and drains the plan.
// The tuple must have the source's declared arity (ErrArity otherwise).
// If the source has been encoded into a channel and the tuple carries no
// membership, the singleton membership of that source's position is added;
// a tuple that carries its own membership (one row of several sources of
// the channel at once) keeps it.
func (e *Engine) Push(source string, t *stream.Tuple) error {
	si, ok := e.lookupSource(source)
	if !ok {
		return fmt.Errorf("engine: source %q not in plan", source)
	}
	if len(t.Vals) != si.arity {
		return arityErr(source, si.arity, len(t.Vals))
	}
	if si.member != nil && t.Member == nil {
		t = t.WithMember(si.member)
	}
	e.enqueue(si.edge, t)
	e.drain()
	return nil
}

func (e *Engine) enqueue(edge *core.Edge, t *stream.Tuple) {
	e.queue = append(e.queue, queued{edge: edge, t: t})
}

// toSinks hands t to the sinks of its edge: each sink whose membership
// position t carries counts it and passes it to the result callback, once
// per query.
func (e *Engine) toSinks(r *edgeRoute, t *stream.Tuple) {
	for i := range r.sinks {
		s := &r.sinks[i]
		if s.pos >= 0 && !t.Member.Test(s.pos) {
			continue
		}
		s.n++
		if e.OnResult != nil {
			for _, qid := range s.queries {
				e.OnResult(qid, t)
			}
		}
	}
}

// countEmitted stands in for the delivery of t to a count-only edge whose
// sink counter is c: the count is all that delivery would have done. An
// Owned t is parked to be recycled with the activation's results.
func (e *Engine) countEmitted(c *int64, t *stream.Tuple) {
	*c++
	e.observeUnqueued(t)
	if t.Owned {
		e.results = append(e.results, parked{t: t})
	}
}

// observeUnqueued counts a delivery of t that did not pass through the
// work queue, whose length drain counts in bulk.
func (e *Engine) observeUnqueued(t *stream.Tuple) {
	if e.obsOn {
		e.delivered++
		if t.Member != nil && t.Member.Spilled() {
			e.memberSpills++
		}
	}
}

// deliverResults delivers the results parked by the activation that just
// returned, then recycles the Owned ones. Every consumer of that
// activation's input has run, so an Owned result is referenced by nothing
// but its sinks, and the callback has returned.
func (e *Engine) deliverResults() {
	for _, q := range e.results {
		for _, port := range q.ports {
			e.observeUnqueued(q.t)
			e.toSinks(&e.routes[q.node.out[port].ID], q.t)
		}
		if q.once {
			e.parkPool.Put(q.t)
		} else if q.t.Owned {
			e.pool.Put(q.t)
		}
	}
	clear(e.results)
	e.results = e.results[:0]
}

// drain propagates queued tuples until quiescence, then folds the matches
// counted by window prefix into the sink counters. The queue's backing
// array is reused across calls; references are released in one bulk clear
// after the loop instead of a per-element store.
func (e *Engine) drain() {
	e.obsOn = obs.Enabled()
	if !e.bound || (e.OnResult != nil) != e.boundCallback {
		e.bindSinks()
	}
	for i := 0; i < len(e.queue); i++ {
		q := e.queue[i]
		if q.b != nil {
			e.deliverBlock(q.edge, q.b)
		} else {
			e.deliver(q.edge, q.t)
		}
	}
	for _, rn := range e.counting {
		n := rn.prefix.FlushCounts()
		rn.emitted += n
		if e.obsOn {
			e.delivered += n
		}
	}
	if !e.qHasBlocks {
		if e.obsOn {
			// The loop ran to quiescence, so the final queue length is the
			// number of edge traversals drained — counted here in bulk, not
			// per delivery.
			e.delivered += int64(len(e.queue))
		}
	} else {
		// Blocks are transient within one drain: with every delivery done,
		// no m-op can still read them, so the whole drain's blocks recycle
		// in one pass (each block sits in the queue exactly once).
		var delivered int64
		for i := range e.queue {
			if b := e.queue[i].b; b != nil {
				delivered += int64(b.SelCount())
				e.bpool.Put(b)
			} else {
				delivered++
			}
		}
		if e.obsOn {
			e.delivered += delivered
		}
		e.qHasBlocks = false
	}
	clear(e.queue)
	e.queue = e.queue[:0]
}

func (e *Engine) deliver(edge *core.Edge, t *stream.Tuple) {
	r := &e.routes[edge.ID]
	if e.obsOn && t.Member != nil && t.Member.Spilled() {
		e.memberSpills++
	}
	if t.Owned && r.clearsOwned {
		t.Owned = false
	}
	if r.hasSink {
		e.toSinks(r, t)
	}
	for _, c := range r.consumers {
		n := c.node
		n.processed++
		if e.obsOn && n.processed&busyMask == 0 {
			t0 := time.Now()
			n.m.Process(c.port, t, n.emit)
			n.busyNS += time.Since(t0).Nanoseconds() * (busyMask + 1)
		} else {
			n.m.Process(c.port, t, n.emit)
		}
	}
	if len(e.results) > 0 {
		e.deliverResults()
	}
	// An Owned tuple was emitted exactly once with exclusive content; once
	// its only delivery retained nothing, it goes back to the engine's
	// tuple pool.
	if t.Owned && r.releasable {
		e.pool.Put(t)
	}
}

// StateRegistry builds the uniform keyed-state registry over the engine's
// current m-ops (see package mop): the handle through which the sharded
// runtime exports, imports, and sizes this replica's operator state during
// an online rebalance. The engine must be quiescent while the registry is
// used.
func (e *Engine) StateRegistry() *mop.StateRegistry {
	ms := make([]mop.MOp, 0, len(e.nodes))
	for _, rn := range e.nodes {
		ms = append(ms, rn.m)
	}
	return mop.NewStateRegistry(ms)
}

// NodeStats reports, per m-op node ID, the number of tuples delivered to
// and emitted by the node — the per-m-op load visibility an operator of
// the system needs to judge where sharing pays off.
type NodeStats struct {
	NodeID    int
	Processed int64
	Emitted   int64
	// BusyNS is a sampled estimate of wall time spent inside the m-op
	// (every 1024th delivery is timed and scaled up); it is 0 unless
	// telemetry was enabled while the node ran. This is the measured
	// per-op busy signal the adaptive re-optimizer consumes.
	BusyNS int64
}

// NodeStats returns per-node counters sorted by node ID.
func (e *Engine) NodeStats() []NodeStats {
	out := make([]NodeStats, 0, len(e.nodes))
	for _, n := range e.nodes {
		out = append(out, NodeStats{NodeID: n.id, Processed: n.processed, Emitted: n.emitted, BusyNS: n.busyNS})
	}
	return out
}

// MetricsInto folds the engine's runtime counters into a snapshot. The
// engine must be quiescent (the caller holds whatever barrier serializes
// pushes — the shard batch barrier, the worker RPC loop, or a
// single-threaded embedder).
func (e *Engine) MetricsInto(s *obs.Snapshot) {
	var processed, emitted, busy int64
	for _, n := range e.nodes {
		processed += n.processed
		emitted += n.emitted
		busy += n.busyNS
	}
	s.AddCounter("engine_op_processed_total", processed)
	s.AddCounter("engine_op_emitted_total", emitted)
	s.AddCounter("engine_op_busy_ns_total", busy)
	s.AddCounter("engine_tuples_delivered_total", e.delivered)
	s.AddCounter("engine_member_spills_total", e.memberSpills)
	s.AddCounter("engine_replay_items_total", e.replayedItems)
	s.AddCounter("engine_results_total", e.TotalResults())
}

// ResultCount returns the number of result tuples produced for a query.
// Counts are kept per sink, not per query: this is the query's base count,
// folded in from earlier routing tables, plus what its current sink has
// delivered. It only reads, so a quiescent engine may be read from any
// goroutine.
func (e *Engine) ResultCount(queryID int) int64 {
	if queryID < 0 || queryID >= len(e.base) {
		return 0
	}
	n := e.base[queryID]
	if s := e.sinkOf[queryID]; s != nil {
		n += s.n
	}
	return n
}

// TotalResults returns the number of result tuples across all queries.
func (e *Engine) TotalResults() int64 {
	var n int64
	for _, c := range e.base {
		n += c
	}
	for i := range e.routes {
		for _, s := range e.routes[i].sinks {
			n += s.n * int64(len(s.queries))
		}
	}
	return n
}

// ResetCounts clears result counters (e.g. after a warm-up pass).
func (e *Engine) ResetCounts() {
	e.foldSinks()
	clear(e.base)
}

// SnapshotCounts returns the per-query result counters, indexed by query
// ID (checkpoint support).
func (e *Engine) SnapshotCounts() []int64 {
	out := make([]int64, len(e.base))
	for qid := range out {
		out[qid] = e.ResultCount(qid)
	}
	return out
}
