// Package engine executes RUMOR physical plans: it lowers every plan node
// to an executable m-op, wires the channel edges, and pushes source tuples
// through the DAG in timestamp order. M-ops are the scheduling units
// (§2.2); propagation is a FIFO work queue, single-threaded, matching the
// paper's prototype execution model and its events/second throughput
// metric (§5). Results on an edge that no m-op consumes skip the queue:
// they reach their sinks when the activation that built them returns.
//
// The delivery fast path is allocation-free: edge routing uses a dense
// table with one entry per live edge (no map lookups per delivery), source
// memberships are interned singletons computed at lowering time, and the
// work queue's backing array is recycled across drains.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	id int
	m  mop.MOp
	// in and out map ports to edges (nil: a port a spliced m-op freed),
	// inR and outR to their routes (-1: none). linkedUses, linkedID and
	// linkedBlock are the port uses, ID and block path the route entries
	// were last patched for, and outChanged, when set, lists the only
	// output ports whose edge may have changed since (relink).
	in, out     []*core.Edge
	inR, outR   []int
	linkedUses  []mop.PortUse
	linkedID    int
	linkedBlock bool
	outChanged  []int
	emit        mop.Emit      // built once at lowering: enqueues on outR[port]
	uses        []mop.PortUse // input port → how delivered tuples are used
	// sinkOnly is, per output port, whether the edge has sinks and no
	// consumer: emit parks a tuple bound for such a port in Engine.results
	// instead of enqueueing it. count is, per output port, the result
	// counter of a count-only edge: sink-only with exactly one plain sink.
	// While no result callback is installed, emit bumps it instead, and
	// parks the tuple only to recycle it if it is Owned (nil: park for
	// delivery). A window-prefix m-op (prefix) is bound to both: its plain
	// groups whose every port is count-only count a match without building
	// it, and fold the counts into these counters when the drain ends
	// (Engine.bindSinks). A route patch resets both for the ports of the
	// edges it patches, and the next drain rebinds, since count points into
	// routes.
	sinkOnly []bool
	count    []*int64
	// ports[i] is i, so a parked result names one port as ports[i:i+1].
	ports []int
	// prefix is the m-op when it emits by window prefix (;, µ, ⨝), else
	// nil; park parks one of its results once for a whole prefix.
	prefix mop.PrefixMOp
	park   func(t *stream.Tuple, ports []int)
	// bm is non-nil when the m-op takes the vectorized path (implements
	// BatchMOp and reported BlockReady at lowering or its last splice);
	// emitB is its block emission closure, handed to ProcessBlock beside
	// emit. Edges into a bm node carry blocks, everything else goes through
	// the block→scalar adapter (see block.go).
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
// delivered since its edge's route was last patched, shared by all its
// queries, and a query's count is its folded base plus its current sink's
// n, summed on read (ResultCount).
type sink struct {
	edge    int             // edge ID
	out     *core.StreamRef // the queries' output stream
	pos     int             // membership position on the edge, -1 for plain
	queries []int
	n       int64
}

// sourceInfo is the precomputed per-source injection state: the route of
// the carrying edge, the declared arity every ingested row must have and,
// when the source has been encoded into a channel, the interned singleton
// membership of its position.
type sourceInfo struct {
	route  int
	arity  int
	member *bitset.Set // nil for plain (non-channel) source edges
}

// ErrArity reports an ingested row whose number of values is not the
// declared arity of its source: a row of the wrong width, or PushColumns
// columns of differing lengths, which leave rows of differing widths. The
// call that returns it has ingested nothing.
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
// consuming m-op ports of one edge, resolved at lowering time and patched
// by every live delta that touches the edge. producers lists the output
// ports writing the edge, whose sink-only and count-only flags the entry
// decides.
type edgeRoute struct {
	edge      *core.Edge // nil for an entry freed by the patch in progress
	sinks     []sink
	consumers []portRef
	producers []portRef
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

	// routes is the dense routing table, one entry per live edge: every
	// delivery costs one slice load instead of two map lookups. route maps
	// an edge ID to its entry; only lowering and live deltas read it.
	routes []edgeRoute
	route  map[int]int
	// touched and resort collect, for the patch in progress, the edges
	// whose entries it patches and the entries whose consumer order and
	// release analysis alone it redoes (relink).
	touched map[int]bool
	resort  []int

	sources map[string]sourceInfo
	// srcList mirrors sources for plans with few source streams: a linear
	// scan with pointer-fast string compares beats a map hash per Push.
	srcList []namedSource
	nodes   []*runtimeNode // sorted by ID
	byID    map[int]*runtimeNode

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

	// base is, per query ID (dense), the count folded in from the query's
	// sinks, less its sink's count when it joined the sink; sinkOf is the
	// query's current sink, nil once the query is removed.
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
	route int
	t     *stream.Tuple
	b     *stream.Block // non-nil for a block delivery (t is then nil)
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
	e := &Engine{plan: p, pool: stream.NewPool(), parkPool: stream.NewPool(), bpool: stream.NewBlockPool(),
		routes: make([]edgeRoute, 0, len(p.Edges)), route: make(map[int]int, len(p.Edges)),
		byID: make(map[int]*runtimeNode), touched: make(map[int]bool, len(p.Edges)), sources: make(map[string]sourceInfo)}
	for _, n := range p.Nodes {
		if n.Kind == core.KindSource {
			continue // sources are injected directly onto their edges
		}
		rn, err := e.lowerNode(n)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, rn)
		e.byID[rn.id] = rn
	}
	slices.SortFunc(e.nodes, func(a, b *runtimeNode) int { return cmp.Compare(a.id, b.id) })
	// The routes are a patch of every edge into an empty table.
	for _, rn := range e.nodes {
		e.relink(rn)
	}
	for id := range p.Edges {
		e.touched[id] = true
	}
	for _, q := range p.Queries {
		e.growQueries(q.ID)
	}
	e.patch()
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
	rn.emit = func(outPort int, out *stream.Tuple) {
		rn.emitted++
		switch {
		case !rn.sinkOnly[outPort]:
			e.enqueue(rn.outR[outPort], out)
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
	if _, ok := low.MOp.(mop.BatchMOp); ok {
		rn.emitB = func(outPort int, b *stream.Block) {
			rn.emitted += int64(b.SelCount())
			e.enqueueBlock(rn.outR[outPort], b)
		}
	}
	rn.refreshBlockPath()
	return rn, nil
}

// refreshBlockPath takes the vectorized path when the m-op offers it.
func (rn *runtimeNode) refreshBlockPath() {
	rn.bm = nil
	if bm, ok := rn.m.(mop.BatchMOp); ok && bm.BlockReady() {
		rn.bm = bm
	}
}

// releaseAnalysis decides what delivering an Owned tuple to the consumer
// ports cs does to it. It is releasable when every port only reads
// delivered tuples. Ownership may pass through exactly one forwarding
// port (a selection re-emitting the tuple); with a storing port or
// several forwarders, the tuple stops being singly referenced and
// clearsOwned: it sheds its Owned flag at delivery. Sinks do not count: a
// result callback only borrows the tuple, and it returns before any
// consumer runs.
func releaseAnalysis(cs []portRef) (releasable, clearsOwned bool) {
	releasable = true
	forwarders := 0
	for _, c := range cs {
		use := mop.PortStores
		if c.port < len(c.node.uses) {
			use = c.node.uses[c.port]
		}
		switch use {
		case mop.PortStores:
			clearsOwned = true
			releasable = false
		case mop.PortForwards:
			forwarders++
			releasable = false
		}
	}
	return releasable, clearsOwned || forwarders > 1
}

// relink moves rn's port registrations in the route entries from the
// edges of its ports' routes (inR, outR) to its current port edges, and
// marks every entry it changed touched; of the output ports it visits
// outChanged alone when set. An input edge rn keeps is queued in resort
// when rn's ID (among other consumers), its block path or its use of the
// port changed: the entry's consumer order and release analysis are then
// redone, and nothing else of it.
func (e *Engine) relink(rn *runtimeNode) {
	block := rn.bm != nil
	e.relinkPorts(rn, rn.in, &rn.inR, nil, func(r *edgeRoute) *[]portRef { return &r.consumers }, func(port, ri int) {
		if block != rn.linkedBlock || rn.uses[port] != rn.linkedUses[port] ||
			rn.id != rn.linkedID && len(e.routes[ri].consumers) > 1 {
			e.resort = append(e.resort, ri)
		}
	})
	rn.linkedUses, rn.linkedID, rn.linkedBlock = append(rn.linkedUses[:0], rn.uses...), rn.id, block
	for n := len(rn.out); len(rn.count) < n; {
		if rn.count == nil {
			rn.count, rn.sinkOnly, rn.ports = make([]*int64, 0, n), make([]bool, 0, n), make([]int, 0, n)
		}
		rn.count, rn.sinkOnly, rn.ports = append(rn.count, nil), append(rn.sinkOnly, false), append(rn.ports, len(rn.ports))
	}
	e.relinkPorts(rn, rn.out, &rn.outR, rn.outChanged, func(r *edgeRoute) *[]portRef { return &r.producers }, nil)
	rn.outChanged = nil
}

// relinkPorts moves the registrations of rn's ports (every port when
// ports is nil) in the route lists list selects from the edges of their
// routes to edges; kept sees each port whose edge stayed.
func (e *Engine) relinkPorts(rn *runtimeNode, edges []*core.Edge, routes *[]int, ports []int, list func(*edgeRoute) *[]portRef, kept func(port, ri int)) {
	*routes = slices.Grow(*routes, max(0, len(edges)-len(*routes)))
	for len(*routes) < len(edges) {
		*routes = append(*routes, -1)
	}
	if ports == nil {
		ports = make([]int, len(*routes))
		for i := range ports {
			ports[i] = i
		}
	}
	for _, port := range ports {
		var was, cur *core.Edge
		ri := (*routes)[port]
		if ri >= 0 {
			was = e.routes[ri].edge
		}
		if port < len(edges) {
			cur = edges[port]
		}
		if was == cur {
			if cur != nil && kept != nil {
				kept(port, ri)
			}
			continue
		}
		if was != nil {
			l := list(&e.routes[ri])
			*l = slices.DeleteFunc(*l, func(c portRef) bool { return c.node == rn && c.port == port })
			e.touched[was.ID] = true
		}
		(*routes)[port] = -1
		if cur != nil {
			ri = e.routeOf(cur)
			l := list(&e.routes[ri])
			*l = append(*l, portRef{node: rn, port: port})
			(*routes)[port] = ri
			e.touched[cur.ID] = true
		}
	}
	*routes = (*routes)[:len(edges)]
}

// routeOf returns the route entry of ed, appending one if it has none.
func (e *Engine) routeOf(ed *core.Edge) int {
	ri, ok := e.route[ed.ID]
	if !ok {
		ri = len(e.routes)
		e.routes = append(e.routes, edgeRoute{edge: ed})
		e.route[ed.ID] = ri
	}
	return ri
}

// patch brings the route entries of the touched edges, and of the edges
// queued in resort, in line with the plan; no other entry is read. A
// touched entry's sinks fold their counts into their queries' base counts
// and are rebuilt from the plan (a query whose output has moved to an
// untouched edge takes that edge along); an edge the plan no longer has
// frees its entry, and the table is compacted to the live edges. Every
// entry patched has its consumers sorted and analyzed, and its producers'
// flags follow it (routeConsumers). The next drain rebinds the
// window-prefix m-ops.
func (e *Engine) patch() {
	p, touched := e.plan, e.touched
	ids := make([]int, 0, len(touched))
	for id := range touched {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i := 0; i < len(ids); i++ {
		ri, ok := e.route[ids[i]]
		if !ok {
			continue
		}
		for j := range e.routes[ri].sinks {
			s := &e.routes[ri].sinks[j]
			e.foldSink(s)
			for _, qid := range s.queries {
				e.sinkOf[qid] = nil
			}
			// A live stream takes its queries along to its edge; the
			// queries of a stream that died were removed or moved to
			// another stream's edge.
			if ed := p.StreamEdge(s.out); ed != nil {
				ids = touch(touched, ids, ed.ID)
				continue
			}
			for _, qid := range s.queries {
				if out := p.OutputOf(qid); out != nil {
					ids = touch(touched, ids, p.StreamEdge(out).ID)
				}
			}
		}
	}
	var freed []int
	for _, id := range ids {
		ri, ok := e.route[id]
		ed := p.Edges[id]
		if ed == nil {
			if ok {
				e.routes[ri] = edgeRoute{}
				delete(e.route, id)
				freed = append(freed, ri)
			}
			continue
		}
		if !ok {
			ri = e.routeOf(ed)
		}
		e.routeSinks(&e.routes[ri])
		e.routeConsumers(&e.routes[ri])
	}
	for _, ri := range e.resort {
		if !touched[e.routes[ri].edge.ID] {
			e.routeConsumers(&e.routes[ri])
		}
	}
	e.resort = e.resort[:0]
	clear(touched)
	e.compactRoutes(freed)
	e.routeSources()
	e.bound = false
}

// routeConsumers sorts r's consumers by node, redoes its release
// analysis, and sets its producers' sink-only and count-only flags.
func (e *Engine) routeConsumers(r *edgeRoute) {
	slices.SortFunc(r.consumers, func(a, b portRef) int {
		return cmp.Or(cmp.Compare(a.node.id, b.node.id), cmp.Compare(a.port, b.port))
	})
	// Release analysis over all consumers (deliver), and over the scalar
	// ones alone for the pooled row tuples the block→scalar adapter
	// materializes.
	r.batchConsumers, r.scalarConsumers = r.batchConsumers[:0], r.scalarConsumers[:0]
	for _, c := range r.consumers {
		if c.node.bm != nil {
			r.batchConsumers = append(r.batchConsumers, c)
		} else {
			r.scalarConsumers = append(r.scalarConsumers, c)
		}
	}
	r.releasable, r.clearsOwned = releaseAnalysis(r.consumers)
	r.rowReleasable, r.rowClearsOwned = releaseAnalysis(r.scalarConsumers)
	// A count-only port's results are counted, not delivered, while no
	// result callback is installed; a window-prefix m-op's group whose
	// every port is count-only then builds no result at all (bindSinks).
	for _, pr := range r.producers {
		rn := pr.node
		rn.sinkOnly[pr.port] = r.hasSink && len(r.consumers) == 0
		rn.count[pr.port] = nil
		if rn.sinkOnly[pr.port] && len(r.sinks) == 1 && r.sinks[0].pos < 0 {
			rn.count[pr.port] = &r.sinks[0].n
		}
	}
}

// sinkNew registers new query qid, whose output is stream out: it joins
// the sink of out on an edge the patch leaves untouched, with its base
// count set to minus the sink's count so it starts at zero. A new sink, or
// one the query would head (sinks are ordered by their first query),
// touches the edge.
func (e *Engine) sinkNew(qid int, out *core.StreamRef) {
	ed := e.plan.StreamEdge(out)
	if e.touched[ed.ID] {
		return
	}
	r := &e.routes[e.route[ed.ID]]
	i := slices.IndexFunc(r.sinks, func(s sink) bool { return s.out == out })
	if i < 0 || qid < r.sinks[i].queries[0] {
		e.touched[ed.ID] = true
		return
	}
	s := &r.sinks[i]
	j, _ := slices.BinarySearch(s.queries, qid)
	s.queries = slices.Insert(s.queries, j, qid)
	e.base[qid] -= s.n
	e.sinkOf[qid] = s
}

// unsink drops removed query qid from its sink, folding the sink's count
// into its base count. A sink left empty touches its edge.
func (e *Engine) unsink(qid int) {
	s := e.sinkOf[qid]
	if e.touched[s.edge] || len(s.queries) == 1 {
		e.touched[s.edge] = true
		return
	}
	s.queries = slices.DeleteFunc(s.queries, func(q int) bool { return q == qid })
	e.base[qid] += s.n
	e.sinkOf[qid] = nil
}

// foldSink moves s's count into its queries' base counts.
func (e *Engine) foldSink(s *sink) {
	for _, qid := range s.queries {
		e.base[qid] += s.n
	}
	s.n = 0
}

// touch marks edge id touched, adding it to ids when it was not.
func touch(touched map[int]bool, ids []int, id int) []int {
	if !touched[id] {
		touched[id] = true
		ids = append(ids, id)
	}
	return ids
}

// routeSinks rebuilds r's sinks from the queries whose outputs its edge
// carries, ordered by their first query as a scan of the plan's queries
// would meet them.
func (e *Engine) routeSinks(r *edgeRoute) {
	ed := r.edge
	r.sinks = r.sinks[:0]
	for pos, st := range ed.Streams {
		if qs := e.plan.OutputQueries(st); len(qs) > 0 {
			if !ed.IsChannel() {
				pos = -1
			}
			r.sinks = append(r.sinks, sink{edge: ed.ID, out: st, pos: pos, queries: qs})
		}
	}
	slices.SortFunc(r.sinks, func(a, b sink) int { return cmp.Compare(a.queries[0], b.queries[0]) })
	for i := range r.sinks {
		for _, qid := range r.sinks[i].queries {
			e.sinkOf[qid] = &r.sinks[i]
		}
	}
	r.hasSink = len(r.sinks) > 0
}

// compactRoutes moves the last live entries into the freed ones, so the
// table holds exactly the live edges.
func (e *Engine) compactRoutes(freed []int) {
	slices.Sort(freed)
	n, last := len(e.routes)-len(freed), len(e.routes)-1
	for _, to := range freed {
		if to >= n {
			break
		}
		for e.routes[last].edge == nil {
			last--
		}
		e.routes[to], e.routes[last] = e.routes[last], edgeRoute{}
		e.route[e.routes[to].edge.ID] = to
		for _, pr := range e.routes[to].producers {
			pr.node.outR[pr.port] = to
		}
		for _, c := range e.routes[to].consumers {
			c.node.inR[c.port] = to
		}
		last--
	}
	clear(e.routes[n:])
	e.routes = e.routes[:n]
}

// routeSources indexes the source edges by every source name they carry,
// with the membership each plain Push must attach precomputed.
func (e *Engine) routeSources() {
	p := e.plan
	clear(e.sources)
	e.srcList = e.srcList[:0]
	for name := range p.Catalog {
		s := p.SourceStream(name)
		if s == nil {
			continue
		}
		edge, pos := p.EdgeOf(s)
		si := sourceInfo{route: e.route[edge.ID], arity: p.Catalog[name].Schema.Arity()}
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
}

// growQueries sizes the per-query counts for query ID qid. Folded counts
// are kept across deltas: a removed query's slot holds its final count, a
// query added live starts at zero.
func (e *Engine) growQueries(qid int) {
	if qid >= len(e.base) {
		e.base = append(e.base, make([]int64, qid+1-len(e.base))...)
		e.sinkOf = append(e.sinkOf, make([]*sink, qid+1-len(e.sinkOf))...)
	}
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

// foldSinks moves every sink's count into its queries' base counts.
func (e *Engine) foldSinks() {
	for i := range e.routes {
		for j := range e.routes[i].sinks {
			e.foldSink(&e.routes[i].sinks[j])
		}
	}
}

// ApplyDelta splices a live plan delta into the running engine: channel
// position remaps recorded by compaction / slot reuse are pushed through
// the stored memberships of the running m-ops; a dirty ;/µ node whose
// operators one running m-op of its kind serves gains and loses operators
// in that m-op (mop.Splice); other dirty nodes are lowered afresh with
// their predecessors' state migrated in (package mop); runtime nodes of
// removed plan nodes are dropped (their unadopted operator state is
// discarded); freshly merged channel members replay the shared stores they
// joined; and the route entries of the edges the delta touches are
// patched. The engine must be quiescent (no in-flight drain); the push
// path itself is untouched by delta application. An error signals a
// broken plan invariant and leaves the engine to be rebuilt.
func (e *Engine) ApplyDelta(d *core.Delta) error {
	if d.Empty() {
		return nil
	}
	p := e.plan
	var olds []*runtimeNode
	for _, ids := range []map[int]bool{d.Removed, d.Dirty} {
		for id := range ids {
			if rn := e.byID[id]; rn != nil {
				olds = append(olds, rn)
			}
		}
	}
	slices.SortFunc(olds, func(a, b *runtimeNode) int { return cmp.Compare(a.id, b.id) })
	// Channel compaction / slot reuse: rewrite the memberships stored
	// against the re-encoded channels before the state moves on. Remaps
	// apply in recording order (a channel may be compacted and then grown
	// within one delta).
	if len(d.Remaps) > 0 {
		reg := mop.NewStateRegistry(mops(olds))
		for _, cr := range d.Remaps {
			rm := mop.NewRemap(cr.Table)
			for _, t := range cr.Ops {
				reg.RemapMemberships(t.OpID, t.Side, rm)
			}
		}
	}
	var dirty []*core.Node
	for id := range d.Dirty {
		n, ok := p.Nodes[id]
		if !ok {
			return fmt.Errorf("engine: dirty node %d not in plan", id)
		}
		if n.Kind != core.KindSource {
			dirty = append(dirty, n)
		}
	}
	slices.SortFunc(dirty, func(a, b *core.Node) int { return cmp.Compare(a.ID, b.ID) })
	// gained holds the operators each spliced or lowered node gained, for
	// the new-member replay.
	gained := make(map[*runtimeNode][]*core.Op)
	if n, rn := splicePred(dirty, olds); n != nil {
		low := &mop.Lowered{MOp: rn.m, InEdges: rn.in, OutEdges: rn.out, PortUses: rn.uses}
		added, ok, err := mop.Splice(p, d, n, low)
		if err != nil {
			return fmt.Errorf("engine: node %d: %w", n.ID, err)
		}
		if ok {
			delete(e.byID, rn.id)
			rn.id, rn.in, rn.out, rn.uses, rn.outChanged = n.ID, low.InEdges, low.OutEdges, low.PortUses, low.OutChanged
			rn.refreshBlockPath()
			e.byID[rn.id] = rn
			e.relink(rn)
			gained[rn] = added
			dirty = slices.DeleteFunc(dirty, func(x *core.Node) bool { return x == n })
			olds = slices.DeleteFunc(olds, func(x *runtimeNode) bool { return x == rn })
		}
	}
	// The other dirty nodes are lowered afresh and adopt their
	// predecessors' state; state no successor adopts is discarded.
	var reg *mop.StateRegistry
	if len(olds) > 0 {
		reg = mop.NewStateRegistry(mops(olds))
	}
	var lowered []*runtimeNode
	for _, n := range dirty {
		rn, err := e.lowerNode(n)
		if err != nil {
			return err
		}
		if reg != nil {
			if err := reg.Adopt(&mop.Lowered{MOp: rn.m, InEdges: rn.in, OutEdges: rn.out, PortUses: rn.uses}); err != nil {
				return fmt.Errorf("engine: node %d: %w", n.ID, err)
			}
		}
		if old := e.byID[n.ID]; old != nil {
			rn.processed, rn.emitted, rn.busyNS = old.processed, old.emitted, old.busyNS
		}
		lowered = append(lowered, rn)
		gained[rn] = n.Ops
	}
	if reg != nil {
		reg.DiscardRest()
	}
	for _, rn := range olds {
		rn.in, rn.out = nil, nil
		e.relink(rn)
		if e.byID[rn.id] == rn {
			delete(e.byID, rn.id)
		}
	}
	for _, rn := range lowered {
		e.byID[rn.id] = rn
		e.relink(rn)
	}
	e.nodes = append(slices.DeleteFunc(e.nodes, func(rn *runtimeNode) bool { return e.byID[rn.id] != rn }), lowered...)
	slices.SortFunc(e.nodes, func(a, b *runtimeNode) int { return cmp.Compare(a.id, b.id) })
	for _, ids := range []map[int]bool{d.NewEdges, d.RemovedEdges} {
		for id := range ids {
			e.touched[id] = true
		}
	}
	for _, qid := range d.RemovedQueries {
		if qid < len(e.sinkOf) && e.sinkOf[qid] != nil {
			e.unsink(qid)
		}
	}
	for _, qid := range d.NewQueries {
		e.growQueries(qid)
		if out := p.OutputOf(qid); out != nil {
			e.sinkNew(qid, out)
		}
	}
	e.patch()
	for rn, ops := range gained {
		if err := e.replayNewMembers(d, rn, ops); err != nil {
			return err
		}
	}
	return nil
}

func mops(rns []*runtimeNode) []mop.MOp {
	ms := make([]mop.MOp, len(rns))
	for i, rn := range rns {
		ms[i] = rn.m
	}
	return ms
}

// splicePred returns the running ;/µ node a dirty ;/µ node is spliced
// into, nil when there is none: with one running and one dirty ;/µ node,
// as a live add or remove that changes one shared ;/µ m-op makes, the
// dirty node's operators are the running one's with some dropped and the
// ones the delta created appended (mop.Splice checks), and no other dirty
// node takes operators or state from the running one. Otherwise every
// dirty node is lowered afresh with its predecessors' state migrated.
func splicePred(dirty []*core.Node, olds []*runtimeNode) (*core.Node, *runtimeNode) {
	isSeq := func(n *core.Node) bool { return n.Kind == core.KindSeq || n.Kind == core.KindMu }
	var rn *runtimeNode
	for _, o := range olds {
		if _, ok := o.m.(*mop.SeqMOp); ok {
			if rn != nil {
				return nil, nil
			}
			rn = o
		}
	}
	i := slices.IndexFunc(dirty, isSeq)
	if rn == nil || i < 0 || slices.ContainsFunc(dirty[i+1:], isSeq) {
		return nil, nil
	}
	return dirty[i], rn
}

// replayNewMembers implements full-window state replay on live re-merge:
// an operator whose input stream was created during the delta and encoded
// into a channel joined an existing shared state group cold — its
// membership position gates it out of every stored item. When the stored
// items carry enough content to re-evaluate the operator's gating chain,
// the group replays them under the new member's bit, so a mid-stream
// subscriber observes the full retained window from its first batch.
// added lists the operators rn gained: an operator a splice kept reads the
// streams it read before.
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
func (e *Engine) replayNewMembers(d *core.Delta, rn *runtimeNode, added []*core.Op) error {
	switch e.plan.Nodes[rn.id].Kind {
	case core.KindAgg, core.KindJoin, core.KindSeq, core.KindMu:
	default:
		return nil
	}
	for _, o := range added {
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
			cnt, err := mop.ReplayMember(rn.m, o.ID, side, pos, keep)
			if err != nil {
				return fmt.Errorf("engine: replay op %d: %w", o.ID, err)
			}
			// Replays happen at churn rate, not tuple rate: count the
			// replayed window size unconditionally.
			e.replayedItems += int64(cnt)
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
		t = e.pool.WithMember(t, si.member)
	}
	e.enqueue(si.route, t)
	e.drain()
	return nil
}

func (e *Engine) enqueue(route int, t *stream.Tuple) {
	e.queue = append(e.queue, queued{route: route, t: t})
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
			e.toSinks(&e.routes[q.node.outR[port]], q.t)
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
			e.deliverBlock(q.route, q.b)
		} else {
			e.deliver(q.route, q.t)
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

func (e *Engine) deliver(route int, t *stream.Tuple) {
	r := &e.routes[route]
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
