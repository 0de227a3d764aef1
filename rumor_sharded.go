package rumor

import (
	"repro/internal/core"
	"repro/internal/shard"
)

// Rebalance drains the shards, migrates stored operator state onto a
// freshly balanced key placement (hot keys move — or split, when the plan
// allows — off overloaded shards), swaps the versioned routing table, and
// resumes ingestion. Results are unaffected; only placement changes. Safe
// to call while other goroutines Push.
func (s *System) Rebalance() (RebalanceStats, error) {
	if s.sh == nil {
		return RebalanceStats{}, notOptimized("Rebalance")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	return s.sh.Rebalance(nil)
}

// MaybeRebalance rebalances only when the load imbalance across shards
// since the last rebalance exceeds maxImbalance (busiest shard's tuples
// replayed plus results produced, over the mean; e.g. 1.25 tolerates
// 25%). It reports whether a rebalance ran.
func (s *System) MaybeRebalance(maxImbalance float64) (bool, RebalanceStats, error) {
	if s.sh == nil {
		return false, RebalanceStats{}, notOptimized("MaybeRebalance")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	return s.sh.MaybeRebalance(maxImbalance)
}

// RebalanceStats reports one online rebalance.
type RebalanceStats = shard.RebalanceStats

// RoutingVersion returns the routing-table version currently in effect
// (bumped by rebalances, recoveries, and re-partitioning live churn).
func (s *System) RoutingVersion() int {
	if s.sh == nil {
		return 0
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	return s.sh.PartitionPlan().RoutingVersion()
}

// NumShards returns the number of engine replicas.
func (s *System) NumShards() int {
	if s.sh == nil {
		return s.cfg.Shards
	}
	return s.sh.NumShards()
}

// PartitionInfo renders the routing decisions of the partitionability
// analysis (empty before Optimize). One in-process shard routes nothing;
// there it renders what the analysis would decide.
func (s *System) PartitionInfo() string {
	if s.sh == nil {
		return ""
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	if s.sh.Inline() {
		return core.AnalyzePartition(s.plan).String()
	}
	return s.sh.PartitionPlan().String()
}

// ShardStat reports one shard's load.
type ShardStat = shard.ShardStat

// ShardStats returns per-shard load counters as one consistent snapshot,
// taken at a barrier.
func (s *System) ShardStats() []ShardStat {
	if s.sh == nil {
		return nil
	}
	return s.sh.ShardStats()
}
