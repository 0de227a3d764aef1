// Package rumor is a Go implementation of RUMOR, the rule-based
// multi-query optimization (MQO) framework for data stream systems of
// Hong et al., "Rule-Based Multi-Query Optimization", EDBT 2009.
//
// RUMOR generalizes the three core abstractions of a stream engine:
// physical operators become m-ops (each implementing a set of operators),
// transformation rules become m-rules (which merge operator sets into
// m-ops), and streams become channels (stream unions whose tuples carry
// membership bit vectors). A single engine then evaluates CQL-style
// relational stream queries, Cayuga-style event pattern queries, and
// hybrid queries, sharing state and computation across all of them.
//
// The System type is the embedding API: declare streams, register
// continuous queries (via the query language or programmatically with the
// re-exported builders), optimize, and push tuples:
//
//	sys := rumor.New()
//	err := sys.ExecScript(`
//	    CREATE STREAM CPU(pid, load);
//	    LET smoothed := AGG(avg(load) OVER 60 BY pid FROM CPU);
//	    QUERY hot := FILTER(load > 90, @smoothed);
//	`)
//	sys.OnResult(func(q string, ts int64, vals []int64) { ... })
//	err = sys.Optimize(rumor.Options{Channels: true})
//	err = sys.Push("CPU", 0, 17, 95)
//
// There is one runtime. New returns it with one engine replica, which runs
// in the pusher's goroutine: results are out before Push returns, and
// Drain is a no-op. NewSharded spreads the same plan over N replicas fed
// by worker goroutines (DialCluster over worker processes); their results
// are out after Drain.
//
// Subpackages (internal): core (plans, m-ops as plan nodes, channels),
// rules (the m-rules and optimizer), mop (executable m-ops: predicate
// indexing, shared aggregation/join, the Cayuga ; and µ operators with
// FR/AN/AI indexes, channel modes), engine (execution), shard (the
// replicated runtime), automaton (the Cayuga baseline and the §4.2
// automaton→plan translation), cql (query language), workload and bench
// (the paper's evaluation).
package rumor

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Logical is a logical query plan node; build trees with Scan, Filter,
// Project, Agg, Join, Seq and Mu (re-exported from the core package).
type Logical = core.Logical

// Builders for programmatic query construction.
var (
	// Scan reads a declared source stream.
	Scan = core.Scan
	// Filter applies a selection predicate (package expr).
	Filter = core.SelectL
	// Project applies a schema map.
	Project = core.ProjectL
	// Agg applies a sliding-window aggregate.
	Agg = core.AggL
	// Join is a windowed two-stream join.
	Join = core.JoinL
	// Seq is the Cayuga sequence operator (;).
	Seq = core.SeqL
	// Mu is the Cayuga iteration operator (µ).
	Mu = core.MuL
)

// Aggregate functions for Agg.
const (
	Sum   = core.AggSum
	Count = core.AggCount
	Avg   = core.AggAvg
	Min   = core.AggMin
	Max   = core.AggMax
)

// Options configures optimization.
type Options struct {
	// Channels enables the channel-based m-rules (cσ, cα, c⨝, c;, cµ). A
	// channel encodes at least two distinct sharable streams.
	Channels bool
}

// PlanInfo summarizes the optimized plan.
type PlanInfo struct {
	Queries   int // registered continuous queries
	MOps      int // m-op nodes (excluding sources)
	Operators int // operator instances implemented by the m-ops
	Channels  int // edges encoding more than one stream
	Streams   int // logical streams

	// LiveSlots / TotalSlots measure channel membership width: live
	// streams vs total encoded slots (including tombstones left by live
	// query removal), summed over the channel edges. Channel compaction
	// keeps LiveSlots ≥ TotalSlots/2 in steady state, so membership words
	// stay bounded under sustained add/remove churn.
	LiveSlots  int
	TotalSlots int

	// ChannelWords is the total membership words backing the channel
	// edges; SpilledChannels counts channels whose membership no longer
	// fits one inline word (each tuple on such a channel carries a heap
	// bitset — engine_member_spills_total counts the per-tuple cost).
	ChannelWords    int
	SpilledChannels int
	// MulticastKeys is the total number of distinct partner constants in
	// the multicast routing tables (0 at one in-process shard, which
	// routes nothing).
	MulticastKeys int

	// BlockEdges counts plan edges statically capable of carrying
	// columnar blocks (produced by a source or selection, read only by
	// selections and ;/µ, membership fits one word); BlocksProcessed is
	// the number of blocks the engine has actually delivered along such
	// edges. It stays 0 when every push took the per-row path: Push and
	// PushShared at one shard, a batch (or a run the sharded router merged
	// from pushed rows) of under 4 rows, and any batch whose source
	// membership has spilled past one word.
	BlockEdges      int
	BlocksProcessed int64
}

// ShardConfig sizes a System: its shard count, batch size and queue
// depth.
type ShardConfig = shard.Config

// System is a RUMOR instance executing one optimized plan across one or
// more engine replicas. At Optimize a system of several shards analyzes
// the plan for partitionability (see core.AnalyzePartition): each source
// stream is routed by hashing a partition attribute when the plan's
// stateful operators are equi-keyed, round-robin when its tuples only
// build operator state probed by a broadcast side (or flow through
// stateless operators), and broadcast otherwise. Results are merged from
// per-shard counters; replicated sinks are attributed to shard 0 only.
//
// Push and PushColumns are safe for concurrent use, as are the
// maintenance operations. With one in-process shard (New) a push is
// processed before it returns; with more, tuples are processed
// asynchronously: call Drain to wait for quiescence before reading
// counts, and Close to shut the workers down.
type System struct {
	catalog map[string]core.SourceDecl
	queries []*core.Query
	byName  map[string]*core.Query

	plan *core.Physical
	// ropts preserves the optimization options for incremental (live)
	// rule application after Optimize.
	ropts rules.Options
	cfg   ShardConfig
	sh    *shard.Engine

	// churnMu serializes maintenance operations (AddQueryLive,
	// RemoveQuery, OnResult, Checkpoint, ...) against each other; pushes
	// stay concurrent and block only for the barrier inside shard.Engine.
	churnMu sync.Mutex
	// nameMu guards the query-name bookkeeping (byName, queries, removed)
	// so ResultCount stays safe against concurrent maintenance.
	nameMu sync.RWMutex
	// removed maps live-removed query names to their frozen final counts.
	removed map[string]int64

	// churnLog, when set, receives one wire.ChurnRecord per successful
	// live maintenance operation (incremental checkpoint mode).
	churnLog io.Writer

	onResult func(query string, ts int64, vals []int64)
}

// ShardedSystem is an alias of System: New, NewSharded and RestoreSharded
// all return the one runtime type.
type ShardedSystem = System

// New creates an empty system with one engine replica, run inline.
func New() *System { return NewSharded(ShardConfig{Shards: 1}) }

// NewSharded creates an empty system of cfg.Shards engine replicas.
func NewSharded(cfg ShardConfig) *System {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	return &System{
		catalog: make(map[string]core.SourceDecl),
		byName:  make(map[string]*core.Query),
		removed: make(map[string]int64),
		cfg:     cfg,
	}
}

// DeclareStream registers a source stream with the given attributes. A
// non-empty sharableLabel marks streams of the same label as sharable
// sources (§3.2 base case 2), making them candidates for channel encoding.
func (s *System) DeclareStream(name, sharableLabel string, attrs ...string) error {
	if _, dup := s.catalog[name]; dup {
		return fmt.Errorf("rumor: stream %q already declared", name)
	}
	sch, err := stream.NewSchema(name, attrs...)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	// Declaring after Optimize is allowed: the new stream enters the
	// running plan when an AddQueryLive first scans it.
	s.catalog[name] = core.SourceDecl{Schema: sch, Label: sharableLabel}
	return nil
}

// ExecScript parses a CQL script, merging its stream declarations and
// registering its queries.
func (s *System) ExecScript(src string) error {
	if s.plan != nil {
		return fmt.Errorf("rumor: cannot add queries after Optimize")
	}
	script, err := cql.Parse(src)
	if err != nil {
		return err
	}
	for name, decl := range script.Catalog {
		if _, dup := s.catalog[name]; dup {
			return fmt.Errorf("rumor: stream %q already declared", name)
		}
		s.catalog[name] = decl
	}
	for _, q := range script.Queries {
		if err := s.addQuery(q); err != nil {
			return err
		}
	}
	return nil
}

// AddQuery registers a programmatically built continuous query.
func (s *System) AddQuery(name string, root *Logical) error {
	if s.plan != nil {
		return fmt.Errorf("rumor: cannot add queries after Optimize")
	}
	return s.addQuery(core.NewQuery(name, root))
}

func (s *System) addQuery(q *core.Query) error {
	if _, dup := s.byName[q.Name]; dup {
		return fmt.Errorf("rumor: query %q already registered", q.Name)
	}
	s.remember(q)
	return nil
}

// remember and forget add a query to and drop it from the name
// bookkeeping.
func (s *System) remember(q *core.Query) {
	s.nameMu.Lock()
	s.queries = append(s.queries, q)
	s.byName[q.Name] = q
	delete(s.removed, q.Name)
	s.nameMu.Unlock()
}

func (s *System) forget(q *core.Query) {
	s.nameMu.Lock()
	s.queries = slices.DeleteFunc(s.queries, func(x *core.Query) bool { return x == q })
	delete(s.byName, q.Name)
	s.nameMu.Unlock()
}

// OnResult registers the result callback; results are attributed by query
// name. It may be called at any time, though not from inside a callback:
// after Optimize the replicas are rewired at the same ingestion barrier a
// live delta takes. Calls are sequenced across shards (one at a time).
// vals is valid until the callback returns; copy it to keep it.
func (s *System) OnResult(fn func(query string, ts int64, vals []int64)) {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.onResult = fn
	if s.sh != nil {
		s.sh.OnResult(s.resultHook())
	}
}

// resultHook adapts the user callback to the engines' query IDs, nil when
// none is registered. Query IDs are dense, so the hook looks its query's
// name up in a slice. Called with churnMu held.
func (s *System) resultHook() func(int, *stream.Tuple) {
	fn := s.onResult
	if fn == nil {
		return nil
	}
	s.nameMu.RLock()
	n := 0
	for _, q := range s.queries {
		n = max(n, q.ID+1)
	}
	names := make([]string, n)
	for _, q := range s.queries {
		names[q.ID] = q.Name
	}
	s.nameMu.RUnlock()
	return func(qid int, t *stream.Tuple) { fn(names[qid], t.TS, t.Vals) }
}

// buildPlan plans all registered queries and applies the m-rules.
func (s *System) buildPlan(opt Options) (*core.Physical, error) {
	if s.plan != nil {
		return nil, fmt.Errorf("rumor: already optimized")
	}
	if len(s.queries) == 0 {
		return nil, fmt.Errorf("rumor: no queries registered")
	}
	plan := core.NewPhysical(s.catalog)
	for _, q := range s.queries {
		if err := plan.AddQuery(q); err != nil {
			return nil, err
		}
	}
	ropts := rules.Options{Channels: opt.Channels}
	if err := rules.Optimize(plan, ropts); err != nil {
		return nil, err
	}
	s.ropts = ropts
	return plan, nil
}

// Optimize plans all registered queries, applies the m-rules, analyzes
// partitionability when there are several shards, and starts the engine
// replicas. It must be called exactly once; afterwards the query set
// evolves through AddQueryLive and RemoveQuery (the §7 "future work" of
// the paper, implemented here as incremental plan maintenance).
func (s *System) Optimize(opt Options) error {
	plan, err := s.buildPlan(opt)
	if err != nil {
		return err
	}
	sh, err := shard.New(plan, nil, s.cfg)
	if err != nil {
		return err
	}
	s.plan, s.sh = plan, sh
	if s.onResult != nil {
		s.OnResult(s.onResult)
	}
	return nil
}

// AddQueryLive registers a continuous query on a running system: the
// query is planned naively into the live physical plan, the m-rules are
// re-applied incrementally (merging the new operators into the shared
// m-ops and growing channel memberships append-only, reusing tombstoned
// slots first), and the delta is spliced into every replica at a
// batch-queue barrier without touching the running queries' operator
// state. Before Optimize it is equivalent to AddQuery.
//
// The new query starts from the shared state its merged operators expose:
// a query that collapses onto an identical running operator (CSE) adopts
// its history; one merged into a plain shared group observes the group's
// stored window; one merged into a channel-mode agg/join/seq group at a
// fresh membership position has the group's retained window replayed
// under its bit, re-filtered through its gating selections — exactly the
// results a from-scratch plan retains whenever the shared store covers the
// new gating.
//
// With several shards the partition plan is extended: running source
// routes are pinned, multicast tables grow, and new sources get fresh
// routes. A query the pinned routes cannot serve (it would re-route a
// running source) triggers a scoped rebalance at the same barrier: the
// grown plan is re-analyzed, and every stateful operator's stored state is
// re-hashed to its owners under the new routes before ingestion resumes.
func (s *System) AddQueryLive(name string, root *Logical) error {
	if s.sh == nil {
		return s.AddQuery(name, root)
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.nameMu.RLock()
	_, dup := s.byName[name]
	s.nameMu.RUnlock()
	if dup {
		return fmt.Errorf("rumor: query %q already registered", name)
	}
	start := time.Now()
	q := core.NewQuery(name, root)
	d, err := live.NewMaintainer(s.plan, s.ropts).AddQuery(q)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	part, rebalance := s.sh.PartitionPlan(), false
	if !s.sh.Inline() {
		ext, perr := core.ExtendPartition(s.plan, part)
		if perr != nil {
			// The pinned routes cannot serve the grown plan. Re-analyze
			// from scratch; the state migration moves the running operator
			// state to wherever the new routes place it. The key-placement
			// overlay restarts empty under a bumped version (adaptive
			// rebalancing re-flattens later if skew rebuilds).
			ext = core.AnalyzePartition(s.plan)
			ext.Table = &core.RoutingTable{Version: part.RoutingVersion() + 1}
			rebalance = true
		}
		part = ext
	}
	s.remember(q)
	ch := &shard.Churn{Delta: d, Rec: wire.ChurnRecord{Op: wire.ChurnAdd, Name: name, Root: root}, Options: s.ropts, Plan: s.plan}
	if _, err := s.sh.ApplyDelta(ch, part, nil, s.resultHook(), rebalance); err != nil {
		// The engine rejected (or rolled back) the delta; undo the name
		// bookkeeping so the registered set matches what the engine serves.
		s.forget(q)
		return fmt.Errorf("rumor: %w", err)
	}
	noteLiveAdd(name, d, time.Since(start))
	return s.logChurn(ch)
}

// RemoveQuery unsubscribes a continuous query. On a running system the
// operators serving only this query are garbage-collected on every replica
// at a batch-queue barrier (shared reference counts drop, channel
// positions are tombstoned, exclusively owned state is discarded) and
// multicast routing tables shed the constants only it needed. Channels
// whose tombstones come to dominate are compacted in the same step, the
// stored memberships rewritten through the position remap, keeping
// membership words bounded under churn (live/total slots ≥ 1/2). The
// query's final result count stays visible through ResultCount and
// TotalResults, across later compactions and rebalances.
func (s *System) RemoveQuery(name string) error {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.nameMu.RLock()
	q, ok := s.byName[name]
	s.nameMu.RUnlock()
	if !ok {
		return fmt.Errorf("rumor: query %q not registered", name)
	}
	if s.sh == nil {
		s.forget(q)
		return nil
	}
	start := time.Now()
	d, err := live.NewMaintainer(s.plan, s.ropts).RemoveQuery(q.ID)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	part := s.sh.PartitionPlan()
	if !s.sh.Inline() {
		// Routes valid for the superset query set stay valid for the
		// subset; keep the old routing when the extension fails (pruning
		// is an optimization, not a correctness requirement).
		if ext, perr := core.ExtendPartition(s.plan, part); perr == nil {
			part = ext
		}
	}
	s.forget(q)
	ch := &shard.Churn{Delta: d, Rec: wire.ChurnRecord{Op: wire.ChurnRemove, Name: name}, Options: s.ropts, Plan: s.plan}
	if _, err := s.sh.ApplyDelta(ch, part, []int{q.ID}, s.resultHook(), false); err != nil {
		s.remember(q)
		return fmt.Errorf("rumor: %w", err)
	}
	s.nameMu.Lock()
	s.removed[name] = s.sh.ResultCount(q.ID)
	s.nameMu.Unlock()
	noteLiveRemove(name, d, time.Since(start))
	return s.logChurn(ch)
}

// ErrArity reports a pushed row whose number of values is not the declared
// arity of its stream. Every Push* entry checks each row before ingesting
// any, so the call that returns it has ingested nothing.
var ErrArity = engine.ErrArity

func notOptimized(op string) error {
	return fmt.Errorf("rumor: call Optimize before %s", op)
}

// Push injects one tuple into a source stream; it is routed to the owning
// shard (or all shards for broadcast sources). The system takes ownership
// of vals. Tuples must be pushed in non-decreasing timestamp order across
// all sources.
func (s *System) Push(streamName string, ts int64, vals ...int64) error {
	if s.sh == nil {
		return notOptimized("Push")
	}
	return s.sh.Push(streamName, ts, vals)
}

// PushColumns injects a batch given column-major: ts[i] pairs with
// cols[a][i] (one slice per attribute). This is the zero-copy entry to the
// vectorized execution path: the batch stays columnar through the router,
// the per-shard WAL and the worker queues until each replica engine wraps
// the slices into blocks, never exploding it into per-row tuples. At one
// in-process shard the caller owns ts and cols again when the call
// returns; with more, every shard's run shares them until that shard's WAL
// prunes it, so the caller must not modify them.
//
// Timestamps must be non-decreasing and must not precede tuples pushed
// later on other sources that should be processed first: a batch trades
// per-call overhead for coarser interleaving with other sources.
// Per-query result streams match per-row Push whenever every multi-input
// operator reads this source through paths of equal operator depth (true
// of typical plans; a source that feeds one join/sequence through paths of
// differing depth should stick to Push), though OnResult calls for
// different queries may interleave differently within a batch. A caller
// that collects rows batches them into columns for this call.
func (s *System) PushColumns(streamName string, ts []int64, cols [][]int64) error {
	if s.sh == nil {
		return notOptimized("PushColumns")
	}
	return s.sh.PushColumns(streamName, ts, cols)
}

// PushShared injects one channel tuple that belongs to all the named
// sharable source streams at once (they must have been encoded into the
// same channel by optimization). Only a system of one in-process shard
// accepts it; with more it fails and ingests nothing.
func (s *System) PushShared(streamNames []string, ts int64, vals ...int64) error {
	if s.sh == nil {
		return notOptimized("PushShared")
	}
	if len(streamNames) == 0 {
		return fmt.Errorf("rumor: PushShared needs at least one stream")
	}
	s.churnMu.Lock() // the plan changes under maintenance
	defer s.churnMu.Unlock()
	member := bitset.New(len(streamNames))
	var edgeID = -1
	for _, name := range streamNames {
		ref := s.plan.SourceStream(name)
		if ref == nil {
			return fmt.Errorf("rumor: source %q not in plan", name)
		}
		e, pos := s.plan.EdgeOf(ref)
		if edgeID == -1 {
			edgeID = e.ID
		} else if e.ID != edgeID {
			return fmt.Errorf("rumor: streams %v are not encoded into one channel", streamNames)
		}
		member.Set(pos)
	}
	return s.sh.PushShared(streamNames[0], &stream.Tuple{TS: ts, Vals: vals, Member: member})
}

// Drain blocks until every shard has processed all tuples pushed so far.
// Result counts are stable afterwards (until the next Push). At one
// in-process shard it returns at once: results are out when a push
// returns.
func (s *System) Drain() error {
	if s.sh == nil {
		return notOptimized("Drain")
	}
	return s.sh.Drain()
}

// Close drains and stops the shard workers. Further pushes fail. Close is
// idempotent.
func (s *System) Close() error {
	if s.sh == nil {
		return nil
	}
	return s.sh.Close()
}

// ResultCount returns the merged result count for a query. Call Drain
// first for a stable value. A query removed live reports its frozen final
// count.
func (s *System) ResultCount(query string) int64 {
	s.nameMu.RLock()
	q, ok := s.byName[query]
	frozen := s.removed[query]
	s.nameMu.RUnlock()
	if !ok || s.sh == nil {
		return frozen
	}
	return s.sh.ResultCount(q.ID)
}

// TotalResults returns the merged result count across all queries,
// including the final counts of queries removed live. Call Drain first for
// a stable value.
func (s *System) TotalResults() int64 {
	if s.sh == nil {
		return 0
	}
	return s.sh.TotalResults()
}

// PlanInfo returns summary statistics of the optimized plan, including
// the multicast routing-table width of the partition analysis.
func (s *System) PlanInfo() PlanInfo {
	if s.plan == nil {
		return PlanInfo{}
	}
	st := s.plan.Stats()
	sources, ops := 0, 0
	for _, n := range s.plan.Nodes {
		if n.Kind == core.KindSource {
			sources++
			continue
		}
		ops += len(n.Ops)
	}
	info := PlanInfo{
		Queries:         st.Queries,
		MOps:            st.Nodes - sources,
		Operators:       ops,
		Channels:        st.Channels,
		Streams:         st.Streams,
		LiveSlots:       st.LiveSlots,
		TotalSlots:      st.TotalSlots,
		ChannelWords:    st.ChannelWords,
		SpilledChannels: st.SpilledChannels,
		BlockEdges:      st.BlockEdges,
		BlocksProcessed: s.sh.BlocksProcessed(),
	}
	for _, r := range s.sh.PartitionPlan().Routes {
		info.MulticastKeys += len(r.Table)
	}
	return info
}

// PlanString renders the optimized physical plan for inspection.
func (s *System) PlanString() string {
	if s.plan == nil {
		return "(not optimized)"
	}
	return s.plan.String()
}

// PlanDot renders the optimized physical plan in Graphviz dot format
// (channels drawn as dashed edges, as in the paper's figures).
func (s *System) PlanDot() string {
	if s.plan == nil {
		return "digraph rumor {}\n"
	}
	return s.plan.Dot()
}
