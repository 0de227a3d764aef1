package rumor

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/stream"
)

// ShardConfig sizes a ShardedSystem.
type ShardConfig struct {
	// Shards is the number of engine replicas (default 1).
	Shards int
	// BatchSize is the number of tuples accumulated per shard before the
	// buffer is handed to the shard's worker goroutine (default 256).
	// Larger batches amortize the cross-goroutine transfer at the cost of
	// result latency.
	BatchSize int
	// QueueDepth bounds the batches buffered per shard; a full queue
	// applies backpressure to pushers (default 8).
	QueueDepth int
}

// ShardedSystem is a RUMOR instance executing one optimized plan across N
// engine replicas. Declaration and planning mirror System; at Optimize the
// plan is analyzed for partitionability (see core.AnalyzePartition): each
// source stream is routed by hashing a partition attribute when the plan's
// stateful operators are equi-keyed, round-robin when its tuples only
// build operator state probed by a broadcast side (or flow through
// stateless operators), and broadcast otherwise. Results are merged from
// per-shard counters; replicated sinks are attributed to shard 0 only.
//
// Push and PushBatch are safe for concurrent use. Tuples are processed
// asynchronously: call Drain to wait for quiescence before reading
// counts, and Close to shut the workers down.
type ShardedSystem struct {
	sys *System
	cfg ShardConfig

	sh   *shard.Engine
	part *core.PartitionPlan

	// churnMu serializes live maintenance operations (AddQueryLive,
	// RemoveQuery) against each other; pushes stay concurrent and block
	// only for the barrier inside shard.Engine.ApplyDelta.
	churnMu sync.Mutex
	// nameMu guards the query-name bookkeeping (sys.byName, sys.queries,
	// removed) so ResultCount stays safe against concurrent maintenance.
	nameMu sync.RWMutex

	// removed maps live-removed query names to their frozen final counts.
	removed map[string]int64

	onResult func(query string, ts int64, vals []int64)
}

// NewSharded creates an empty sharded system.
func NewSharded(cfg ShardConfig) *ShardedSystem {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	return &ShardedSystem{sys: New(), cfg: cfg}
}

// DeclareStream registers a source stream (see System.DeclareStream).
func (s *ShardedSystem) DeclareStream(name, sharableLabel string, attrs ...string) error {
	return s.sys.DeclareStream(name, sharableLabel, attrs...)
}

// ExecScript parses a CQL script (see System.ExecScript).
func (s *ShardedSystem) ExecScript(src string) error {
	return s.sys.ExecScript(src)
}

// AddQuery registers a programmatically built continuous query.
func (s *ShardedSystem) AddQuery(name string, root *Logical) error {
	return s.sys.AddQuery(name, root)
}

// OnResult registers the result callback. Calls are sequenced across
// shards (one at a time), attributed by query name. Must be registered
// before the first Push. vals is valid until the callback returns; copy it
// to keep it.
func (s *ShardedSystem) OnResult(fn func(query string, ts int64, vals []int64)) {
	s.onResult = fn
	if s.sh != nil {
		s.wireCallback()
	}
}

func (s *ShardedSystem) wireCallback() {
	if s.onResult == nil {
		s.sh.OnResult(nil)
		return
	}
	s.nameMu.RLock()
	names := queryNames(s.sys.queries)
	s.nameMu.RUnlock()
	fn := s.onResult
	s.sh.OnResult(func(qid int, t *stream.Tuple) {
		fn(names[qid], t.TS, t.Vals)
	})
}

// Optimize plans all registered queries, applies the m-rules, analyzes
// partitionability, and starts the shard workers. It must be called
// exactly once.
func (s *ShardedSystem) Optimize(opt Options) error {
	plan, err := s.sys.buildPlan(opt)
	if err != nil {
		return err
	}
	part := core.AnalyzePartition(plan)
	sh, err := shard.New(plan, part, shard.Config{
		Shards:     s.cfg.Shards,
		BatchSize:  s.cfg.BatchSize,
		QueueDepth: s.cfg.QueueDepth,
	})
	if err != nil {
		return err
	}
	s.sys.plan = plan
	s.sh = sh
	s.part = part
	if s.onResult != nil {
		s.wireCallback()
	}
	return nil
}

// AddQueryLive registers a continuous query on the running sharded
// system. The shared plan is re-optimized incrementally (see
// System.AddQueryLive), the partition plan is extended — existing source
// routes are pinned (the distributed operator state depends on them) and
// only multicast tables grow and new sources receive fresh routes — and
// the delta is applied to every engine replica at a batch-queue barrier.
//
// When the new query cannot be served under the pinned routes (it would
// re-route a running source — e.g. it needs a broadcast of a currently
// partitioned stream), the system performs a scoped rebalance instead of
// rejecting the add: the grown plan is re-analyzed from scratch and, at
// the same barrier that splices the delta, every stateful operator's
// stored state is drained, re-hashed to its owners under the new routes,
// and imported there before ingestion resumes (shard.ApplyDeltaRebalance).
//
// State semantics match System.AddQueryLive: a query merged into an
// existing channel-mode stateful group has each replica's retained window
// replayed under its membership bit (filtered through its gating
// selections), and channel growth reuses tombstoned slots before
// widening. Safe to call while other goroutines Push; maintenance
// operations are serialized internally. Before Optimize it is equivalent
// to AddQuery.
func (s *ShardedSystem) AddQueryLive(name string, root *Logical) error {
	if s.sh == nil {
		return s.sys.AddQuery(name, root)
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.nameMu.RLock()
	_, dup := s.sys.byName[name]
	s.nameMu.RUnlock()
	if dup {
		return fmt.Errorf("rumor: query %q already registered", name)
	}
	start := time.Now()
	q := core.NewQuery(name, root)
	m := live.NewMaintainer(s.sys.plan, s.sys.ropts)
	d, err := m.AddQuery(q)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	part, perr := core.ExtendPartition(s.sys.plan, s.part)
	rebalance := false
	if perr != nil {
		// The pinned routes cannot serve the grown plan. Re-analyze from
		// scratch; the state migration below moves the running operator
		// state to wherever the new routes place it. The key-placement
		// overlay restarts empty under a bumped version (adaptive
		// rebalancing re-flattens later if skew rebuilds).
		part = core.AnalyzePartition(s.sys.plan)
		part.Table = &core.RoutingTable{Version: s.part.RoutingVersion() + 1}
		rebalance = true
	}
	s.nameMu.Lock()
	s.sys.queries = append(s.sys.queries, q)
	s.sys.byName[name] = q
	delete(s.removed, name)
	s.nameMu.Unlock()
	apply := s.sh.ApplyDelta
	if rebalance {
		apply = s.sh.ApplyDeltaRebalance
	}
	if err := apply(d, part, nil, func() { s.wireCallback() }); err != nil {
		// The engine rejected (or rolled back) the delta; undo the name
		// bookkeeping so the registered set matches what the engine serves.
		s.nameMu.Lock()
		s.sys.queries = removeQueryFrom(s.sys.queries, q)
		delete(s.sys.byName, name)
		s.nameMu.Unlock()
		return fmt.Errorf("rumor: %w", err)
	}
	s.part = part
	noteLiveAdd(name, d, time.Since(start))
	return s.sys.logChurnAdd(name, root, d)
}

// Rebalance drains the shards, migrates stored operator state onto a
// freshly balanced key placement (hot keys move — or split, when the plan
// allows — off overloaded shards), swaps the versioned routing table, and
// resumes ingestion. Results are unaffected; only placement changes. Safe
// to call while other goroutines Push.
func (s *ShardedSystem) Rebalance() (RebalanceStats, error) {
	if s.sh == nil {
		return RebalanceStats{}, fmt.Errorf("rumor: call Optimize before Rebalance")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	st, err := s.sh.Rebalance(nil)
	return s.finishRebalance(st, err == nil), err
}

// finishRebalance adopts the routing table a shard-level rebalance
// installed and converts its stats. Caller holds churnMu.
func (s *ShardedSystem) finishRebalance(st shard.RebalanceStats, ran bool) RebalanceStats {
	if ran {
		s.part = s.sh.PartitionPlan()
	}
	return RebalanceStats{
		Moved: st.Moved, Dropped: st.Dropped, Keys: st.Keys,
		PauseNS: st.Pause.Nanoseconds(), Version: st.Version,
	}
}

// MaybeRebalance rebalances only when the load imbalance across shards
// since the last rebalance exceeds maxImbalance (busiest shard's tuples
// replayed plus results produced, over the mean; e.g. 1.25 tolerates
// 25%). It reports whether a rebalance ran.
func (s *ShardedSystem) MaybeRebalance(maxImbalance float64) (bool, RebalanceStats, error) {
	if s.sh == nil {
		return false, RebalanceStats{}, fmt.Errorf("rumor: call Optimize before MaybeRebalance")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	ran, st, err := s.sh.MaybeRebalance(maxImbalance)
	return ran, s.finishRebalance(st, ran && err == nil), err
}

// RebalanceStats reports one online rebalance.
type RebalanceStats struct {
	Moved   int   // state items imported on a new owner shard
	Dropped int   // replicated copies deduplicated away
	Keys    int   // keys with explicit placements afterwards
	PauseNS int64 // ingestion pause, barrier to resume
	Version int   // routing-table version now in effect
}

// RemoveQuery unsubscribes a continuous query from the running sharded
// system: its exclusively owned operators are garbage-collected on every
// replica at a batch-queue barrier, multicast routing tables shed the
// constants only it needed, tombstone-dominated channels are compacted
// (every replica rewrites its stored memberships through the recorded
// position remap at the same barrier), and its merged final result count
// is frozen (still visible through ResultCount and TotalResults, across
// later compactions and rebalance epoch rebases). Safe to call while
// other goroutines Push.
func (s *ShardedSystem) RemoveQuery(name string) error {
	if s.sh == nil {
		return s.sys.RemoveQuery(name)
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.nameMu.RLock()
	q, ok := s.sys.byName[name]
	s.nameMu.RUnlock()
	if !ok {
		return fmt.Errorf("rumor: query %q not registered", name)
	}
	start := time.Now()
	m := live.NewMaintainer(s.sys.plan, s.sys.ropts)
	d, err := m.RemoveQuery(q.ID)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	part, perr := core.ExtendPartition(s.sys.plan, s.part)
	if perr != nil {
		// Routes valid for the superset query set stay valid for the
		// subset; keep the old routing (pruning is an optimization, not a
		// correctness requirement).
		part = s.part
	}
	s.nameMu.Lock()
	s.sys.queries = removeQueryFrom(s.sys.queries, q)
	delete(s.sys.byName, name)
	s.nameMu.Unlock()
	if err := s.sh.ApplyDelta(d, part, []int{q.ID}, func() { s.wireCallback() }); err != nil {
		s.nameMu.Lock()
		s.sys.queries = append(s.sys.queries, q)
		s.sys.byName[name] = q
		s.nameMu.Unlock()
		return fmt.Errorf("rumor: %w", err)
	}
	s.part = part
	s.nameMu.Lock()
	if s.removed == nil {
		s.removed = make(map[string]int64)
	}
	s.removed[name] = s.sh.ResultCount(q.ID)
	s.nameMu.Unlock()
	noteLiveRemove(name, d, time.Since(start))
	return s.sys.logChurnRemove(name, d)
}

// Push injects one tuple into a source stream; it is routed to the owning
// shard (or all shards for broadcast sources) and processed
// asynchronously. The system takes ownership of vals. Tuples must be
// pushed in non-decreasing timestamp order.
func (s *ShardedSystem) Push(streamName string, ts int64, vals ...int64) error {
	if s.sh == nil {
		return fmt.Errorf("rumor: call Optimize before Push")
	}
	return s.sh.Push(streamName, ts, vals)
}

// PushBatch injects a batch of tuples into one source stream under a
// single routing pass. ts[i] pairs with vals[i]; the system takes
// ownership of the value slices.
func (s *ShardedSystem) PushBatch(streamName string, ts []int64, vals [][]int64) error {
	if s.sh == nil {
		return fmt.Errorf("rumor: call Optimize before PushBatch")
	}
	return s.sh.PushBatch(streamName, ts, vals)
}

// PushColumns injects a batch given column-major — ts[i] pairs with
// cols[a][i] — keeping it columnar through the router, the per-shard WAL,
// and the worker queues until each replica engine's vectorized path. The
// system takes ownership of ts and cols: every shard's run shares them
// until that shard's WAL prunes it, so the caller must not modify them.
func (s *ShardedSystem) PushColumns(streamName string, ts []int64, cols [][]int64) error {
	if s.sh == nil {
		return fmt.Errorf("rumor: call Optimize before PushColumns")
	}
	return s.sh.PushColumns(streamName, ts, cols)
}

// Drain blocks until every shard has processed all tuples pushed so far.
// Result counts are stable afterwards (until the next Push).
func (s *ShardedSystem) Drain() error {
	if s.sh == nil {
		return fmt.Errorf("rumor: call Optimize before Drain")
	}
	return s.sh.Drain()
}

// Close drains and stops the shard workers. Further pushes fail. Close is
// idempotent.
func (s *ShardedSystem) Close() error {
	if s.sh == nil {
		return nil
	}
	return s.sh.Close()
}

// ResultCount returns the merged result count for a query. Call Drain
// first for a stable value. A query removed live reports its frozen final
// count.
func (s *ShardedSystem) ResultCount(query string) int64 {
	s.nameMu.RLock()
	q, ok := s.sys.byName[query]
	frozen := s.removed[query]
	s.nameMu.RUnlock()
	if !ok || s.sh == nil {
		return frozen
	}
	return s.sh.ResultCount(q.ID)
}

// TotalResults returns the merged result count across all queries. Call
// Drain first for a stable value.
func (s *ShardedSystem) TotalResults() int64 {
	if s.sh == nil {
		return 0
	}
	return s.sh.TotalResults()
}

// NumShards returns the number of engine replicas.
func (s *ShardedSystem) NumShards() int {
	if s.sh == nil {
		return s.cfg.Shards
	}
	return s.sh.NumShards()
}

// PartitionInfo renders the routing decisions of the partitionability
// analysis (empty before Optimize).
func (s *ShardedSystem) PartitionInfo() string {
	if s.part == nil {
		return ""
	}
	return s.part.String()
}

// ShardStat reports one shard's load after a Drain.
type ShardStat struct {
	Shard   int
	Tuples  int64 // tuples routed into the shard
	BusyNS  int64 // time the shard's worker spent processing
	Results int64 // results produced by the shard
}

// ShardStats returns per-shard load counters. Call Drain first for stable
// values.
func (s *ShardedSystem) ShardStats() []ShardStat {
	if s.sh == nil {
		return nil
	}
	raw := s.sh.ShardStats()
	out := make([]ShardStat, len(raw))
	for i, st := range raw {
		out[i] = ShardStat{Shard: st.Shard, Tuples: st.Tuples, BusyNS: st.BusyNS, Results: st.Results}
	}
	return out
}

// PlanInfo returns summary statistics of the optimized plan, including
// the multicast routing-table width of the partition analysis.
func (s *ShardedSystem) PlanInfo() PlanInfo {
	info := s.sys.PlanInfo()
	if s.part != nil {
		for _, r := range s.part.Routes {
			info.MulticastKeys += len(r.Table)
		}
	}
	if s.sh != nil {
		info.BlocksProcessed = s.sh.BlocksProcessed()
	}
	return info
}

// PlanString renders the optimized physical plan for inspection.
func (s *ShardedSystem) PlanString() string {
	return s.sys.PlanString()
}
