package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/mop"
	"repro/internal/obs"
)

// ErrPartialMigration reports a state migration that failed mid-flight and
// was rolled back: every touched group side was restored from its
// pre-migration snapshot, the old routing stays in effect, and the engine
// remains fully usable. The wrapped cause describes the failed step.
var ErrPartialMigration = errors.New("shard: partial state migration rolled back")

// This file implements online shard rebalancing: a drain / re-hash /
// resume protocol over the uniform operator state registry (package mop).
//
// Rebalance runs at the same batch-queue barrier as a live plan delta:
// ingestion blocks, every worker acknowledges quiescence, and the caller
// goroutine owns every replica. It then compares the distribution of each
// stateful operator's inputs under the old and new partition plans
// (core.OpSideDists) and moves exactly the state that is out of place:
//
//	old \ new     keyed                    replicated            any
//	keyed/any     export misplaced items,  export all, import a  keep in
//	              round-robin split keys   copy into every       place
//	              across their owners      replica
//	replicated    local keep-if-owner      keep                  keep on
//	              (identical store order                         shard 0,
//	              on every replica — no                          drop the
//	              transfer at all)                               other
//	                                                             copies
//
// Counting survives sink transitions (partitioned ↔ replicated) because
// every rebalance folds the replica counters into a per-query base and
// resets them (rebaseCountsLocked).

// RebalanceStats reports one online rebalance.
type RebalanceStats struct {
	Moved   int   // state items imported on a new owner shard
	Dropped int   // replicated copies deduplicated away
	Keys    int   // keys with explicit placements afterwards
	PauseNS int64 // ingestion pause, barrier to resume
	Version int   // routing-table version now in effect
}

// Rebalance drains the batch queues, migrates stored operator state to its
// placement under part, swaps the routing tables, and resumes ingestion.
// part must share the current plan's routes (same modes and attributes) —
// it typically differs only in its key-placement overlay; pass nil to let
// the engine build a balanced overlay from the keyed-state histograms of
// its replicas (steered by the observed per-key state weights). Concurrent
// Push/PushBatch callers block for the duration; maintenance operations
// must be serialized by the caller.
func (e *Engine) Rebalance(part *core.PartitionPlan) (RebalanceStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	var st RebalanceStats
	if e.closed {
		return st, errClosed
	}
	if err := e.quiesceLocked(); err != nil {
		return st, err
	}
	regs := e.registriesLocked()
	oldD := e.part.OpSideDists(e.plan)
	if part == nil {
		part = e.planMovesLocked(regs, oldD)
	}
	st, err := e.migrateStateLocked(regs, oldD, part)
	if err != nil {
		return st, err
	}
	if err := e.rebaseCountsLocked(); err != nil {
		e.stopLocked(false)
		return st, fmt.Errorf("shard: counter rebase failed, engine disabled: %w", err)
	}
	e.statsMu.Lock()
	e.part = part
	e.statsMu.Unlock()
	e.rebuildSourceRoutes(part)
	pause := time.Since(start)
	st.PauseNS = pause.Nanoseconds()
	st.Version = part.RoutingVersion()
	if part.Table != nil {
		st.Keys = len(part.Table.Moves)
	}
	obs.RecordEvent(obs.EvRebalance,
		fmt.Sprintf("moved=%d dropped=%d keys=%d version=%d", st.Moved, st.Dropped, st.Keys, st.Version),
		pause)
	return st, nil
}

// registriesLocked harvests each replica's state registry — direct for
// local replicas, the RPC adapter for remote ones. Called at a barrier
// with mu held.
func (e *Engine) registriesLocked() []Registry {
	regs := make([]Registry, len(e.workers))
	for i, w := range e.workers {
		regs[i] = w.rep.registry()
	}
	return regs
}

// Imbalance returns the load imbalance across shards since the last
// rebalance: the largest replica's work divided by the mean (1 = flat). A
// replica's work is the tuples it replayed plus the results it produced,
// so it grows with a shard's input whether or not anything matches, and
// with its output. Every counter rebase (rebalance, recovery, a
// rebalancing delta) starts both counts afresh. They depend only on
// input, plan and routing, so identical pushes read the identical value
// on every run; the workers' busy time stays telemetry
// (shard_busy_ns_total). Like ShardStats, Imbalance quiesces the live
// workers first, so concurrent pushers block for the barrier.
func (e *Engine) Imbalance() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		// A sticky replay error does not make the counters unreadable; it
		// surfaces on Drain/Close.
		_ = e.quiesceLiveLocked()
	}
	var total, most int64
	for _, w := range e.workers {
		n := w.tuples.Load() - w.tuplesBase + w.rep.totalResults()
		total += n
		most = max(most, n)
	}
	if total <= 0 {
		return 1
	}
	mean := float64(total) / float64(len(e.workers))
	return float64(most) / mean
}

// MaybeRebalance rebalances when the load imbalance since the last
// rebalance exceeds maxImbalance (e.g. 1.25 = busiest shard 25% above the
// mean). It reports whether a rebalance ran.
func (e *Engine) MaybeRebalance(maxImbalance float64) (bool, RebalanceStats, error) {
	if len(e.workers) == 1 || e.Imbalance() <= maxImbalance {
		return false, RebalanceStats{}, nil
	}
	st, err := e.Rebalance(nil)
	return true, st, err
}

// sideDistOf looks up one op side's distribution, defaulting to DistAny
// (state left in place) for operators the analysis does not cover.
func sideDistOf(dists map[int][]core.SideDist, opID, side int) core.SideDist {
	return core.SideDistAt(dists, opID, side)
}

// touchedSide is one (group, side) the transition matrix will act on.
type touchedSide struct {
	ref    mop.GroupRef
	side   int
	od, nd core.SideDist
}

// transitionTouches reports whether the transition matrix moves or drops
// anything for an old→new distribution pair (the non-default cases of
// migrateGroupSide).
func transitionTouches(od, nd core.SideDist) bool {
	switch {
	case nd.Dist == core.DistKeyed:
		return true
	case nd.Dist == core.DistReplicated && od.Dist != core.DistReplicated:
		return true
	case nd.Dist == core.DistAny && od.Dist == core.DistReplicated:
		return true
	}
	return false
}

// migrateStateLocked moves stored operator state from its placement under
// the current routes (whose distributions are oldD) to its placement
// under newPart. Called at a barrier with mu held; the plan must already
// reflect any delta applied to the replicas.
//
// Before anything moves, every group side the transition matrix will touch
// is snapshotted with a destructive peek: export-all followed by an
// immediate in-place re-import leaves the store unchanged (modulo
// tombstone compaction, which carries no state) while the export payload
// survives as a restore point referencing the very tuples in the stores. A
// mid-migration failure then rolls the touched sides back to their
// snapshots and returns ErrPartialMigration with the engine fully usable;
// the engine is poisoned only if the rollback itself fails. Payload
// discards (which release µ pooled state) are deferred until the whole
// migration has succeeded, because the snapshots alias that state.
func (e *Engine) migrateStateLocked(regs []Registry, oldD map[int][]core.SideDist, newPart *core.PartitionPlan) (RebalanceStats, error) {
	var st RebalanceStats
	if len(e.workers) == 1 {
		return st, nil
	}
	newD := newPart.OpSideDists(e.plan)
	var touched []touchedSide
	snap := make(map[[2]int][]*mop.StatePayload)
	for _, ref := range regs[0].Groups() {
		for _, side := range ref.Sides {
			od := sideDistOf(oldD, ref.OpID, side)
			nd := sideDistOf(newD, ref.OpID, side)
			if !transitionTouches(od, nd) {
				continue
			}
			pls := make([]*mop.StatePayload, len(regs))
			for i, reg := range regs {
				pl, err := reg.Export(ref.OpID, side, -1, func(int64, int) bool { return true })
				if err != nil {
					// Unknown operator: nothing was exported, the engine
					// is unchanged.
					return st, err
				}
				if pl.Len() > 0 {
					if err := reg.Import(ref.OpID, pl, false); err != nil {
						e.stopLocked(false)
						return st, fmt.Errorf("shard: snapshot re-import failed, engine disabled: %w", err)
					}
				}
				pls[i] = pl
			}
			snap[[2]int{ref.OpID, side}] = pls
			touched = append(touched, touchedSide{ref: ref, side: side, od: od, nd: nd})
		}
	}
	var discards []*mop.StatePayload
	for _, t := range touched {
		if err := e.migrateGroupSide(regs, t.ref, t.side, t.od, t.nd, newPart, &st, &discards); err != nil {
			if rbErr := rollbackMigration(regs, touched, snap); rbErr != nil {
				e.stopLocked(false)
				return st, fmt.Errorf("shard: state migration failed (%v), rollback failed, engine disabled: %w", err, rbErr)
			}
			return RebalanceStats{}, fmt.Errorf("%w: %w", ErrPartialMigration, err)
		}
	}
	for _, pl := range discards {
		pl.Discard()
	}
	return st, nil
}

// rollbackMigration restores every touched group side from its snapshot:
// whatever the partial migration left on a replica is cleared (exported
// and dropped — never discarded, since those items alias the snapshot
// being restored; clones imported by copy are simply released to the
// garbage collector) and the snapshot payload re-imported in place.
func rollbackMigration(regs []Registry, touched []touchedSide, snap map[[2]int][]*mop.StatePayload) error {
	// Clear every touched side on every replica first (a half-migrated
	// item may sit on a replica other than its snapshot home), then
	// restore the snapshots.
	for _, t := range touched {
		for _, reg := range regs {
			if _, err := reg.Export(t.ref.OpID, t.side, -1, func(int64, int) bool { return true }); err != nil {
				return err
			}
		}
	}
	for _, t := range touched {
		pls := snap[[2]int{t.ref.OpID, t.side}]
		for i, reg := range regs {
			if pls[i].Len() == 0 {
				continue
			}
			if err := reg.Import(t.ref.OpID, pls[i], false); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrateGroupSide applies the transition matrix to one (group, side).
// Payloads whose pooled state must be released are appended to discards
// instead of being discarded inline: the caller's rollback snapshots alias
// that state, so releases only happen once the whole migration commits.
func (e *Engine) migrateGroupSide(regs []Registry, ref mop.GroupRef, side int,
	od, nd core.SideDist, newPart *core.PartitionPlan, st *RebalanceStats, discards *[]*mop.StatePayload) error {
	n := len(regs)
	switch {
	case nd.Dist == core.DistKeyed && od.Dist != core.DistReplicated:
		// Keyed (or previously unkeyed) state: export every item whose new
		// owner set is not exactly its current replica, then spread the
		// exports round-robin per key across the owners. Items already in
		// place never leave their replica.
		payloads := make([]*mop.StatePayload, n)
		for i, reg := range regs {
			if err := faultpoint.Error("shard.rebalance.export"); err != nil {
				return err
			}
			pl, err := reg.Export(ref.OpID, side, nd.Attr, func(key int64, _ int) bool {
				owners := newPart.Owners(key, n)
				return !(len(owners) == 1 && owners[0] == i)
			})
			if err != nil {
				return err
			}
			payloads[i] = pl
		}
		merged := mop.MergePayloads(payloads)
		if merged.Len() == 0 {
			return nil
		}
		rr := make(map[int64]int)
		parts := merged.SplitBy(n, func(key int64) int {
			owners := newPart.Owners(key, n)
			k := rr[key]
			rr[key] = k + 1
			return owners[k%len(owners)]
		})
		for i, pl := range parts {
			if pl.Len() == 0 {
				continue
			}
			if err := faultpoint.Error("shard.rebalance.import"); err != nil {
				return err
			}
			if err := regs[i].Import(ref.OpID, pl, false); err != nil {
				return err
			}
			st.Moved += pl.Len()
		}
	case nd.Dist == core.DistKeyed && od.Dist == core.DistReplicated:
		// Replicated state becomes keyed: every replica holds an identical
		// copy in identical store order, so each keeps exactly the items
		// the new placement assigns to it (per-key round-robin over the
		// store ordinal) and drops the rest — no transfer at all.
		for i, reg := range regs {
			if err := faultpoint.Error("shard.rebalance.export"); err != nil {
				return err
			}
			pl, err := reg.Export(ref.OpID, side, nd.Attr, func(key int64, ord int) bool {
				owners := newPart.Owners(key, n)
				return owners[ord%len(owners)] != i
			})
			if err != nil {
				return err
			}
			st.Dropped += pl.Len()
			*discards = append(*discards, pl)
		}
	case nd.Dist == core.DistReplicated && od.Dist != core.DistReplicated:
		// Partitioned state becomes replicated: collect everything (key
		// extraction skipped: keyAttr -1) and import a copy into every
		// replica (pool-owned state is cloned).
		payloads := make([]*mop.StatePayload, n)
		for i, reg := range regs {
			if err := faultpoint.Error("shard.rebalance.export"); err != nil {
				return err
			}
			pl, err := reg.Export(ref.OpID, side, -1, func(int64, int) bool { return true })
			if err != nil {
				return err
			}
			payloads[i] = pl
		}
		merged := mop.MergePayloads(payloads)
		if merged.Len() == 0 {
			return nil
		}
		for _, reg := range regs {
			if err := faultpoint.Error("shard.rebalance.import"); err != nil {
				return err
			}
			if err := reg.Import(ref.OpID, merged, true); err != nil {
				return err
			}
			st.Moved += merged.Len()
		}
		*discards = append(*discards, merged)
	case nd.Dist == core.DistAny && od.Dist == core.DistReplicated:
		// Replicated copies must collapse to one: keep shard 0's.
		for i := 1; i < n; i++ {
			pl, err := regs[i].Export(ref.OpID, side, -1, func(int64, int) bool { return true })
			if err != nil {
				return err
			}
			st.Dropped += pl.Len()
			*discards = append(*discards, pl)
		}
	default:
		// keyed→any, any→any, replicated→replicated, multicast sides:
		// existing placement stays valid; nothing moves.
	}
	return nil
}

// planMovesLocked builds a balanced key-placement overlay from the keyed
// state actually stored on the replicas: per-key item counts are the load
// proxy (they are what busy time scales with on the stateful path). Called
// at a barrier with mu held, over the registries and distributions the
// migration will reuse.
func (e *Engine) planMovesLocked(regs []Registry, dists map[int][]core.SideDist) *core.PartitionPlan {
	n := len(e.workers)
	hist := make(map[int64]int64)
	for _, reg := range regs {
		for _, ref := range reg.Groups() {
			for _, side := range ref.Sides {
				d := sideDistOf(dists, ref.OpID, side)
				if d.Dist != core.DistKeyed {
					continue
				}
				reg.Histogram(ref.OpID, side, d.Attr, hist)
			}
		}
	}
	moves := buildMoves(hist, n, e.part.SplitSafe(e.plan))
	return e.part.WithMoves(moves)
}

// buildMoves assigns the weighted keys to shards with a deterministic LPT
// (longest-processing-time) greedy: keys in descending weight order each
// go to the least-loaded shard, and a key heavier than the per-shard
// target is split across several shards when splitting is safe. Only keys
// that leave their default hash placement enter the overlay.
func buildMoves(hist map[int64]int64, n int, splitOK bool) map[int64][]int {
	if len(hist) == 0 || n <= 1 {
		return nil
	}
	keys := make([]int64, 0, len(hist))
	var total int64
	for k, w := range hist {
		keys = append(keys, k)
		total += w
	}
	sort.Slice(keys, func(i, j int) bool {
		wi, wj := hist[keys[i]], hist[keys[j]]
		if wi != wj {
			return wi > wj
		}
		return keys[i] < keys[j]
	})
	target := total / int64(n)
	if target < 1 {
		target = 1
	}
	load := make([]int64, n)
	leastLoaded := func() int {
		best := 0
		for i := 1; i < n; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		return best
	}
	moves := make(map[int64][]int)
	for _, k := range keys {
		w := hist[k]
		if splitOK && w > target {
			parts := int((w + target - 1) / target)
			if parts > n {
				parts = n
			}
			owners := make([]int, 0, parts)
			used := make(map[int]bool, parts)
			for p := 0; p < parts; p++ {
				// Least-loaded shard not already an owner of this key.
				best := -1
				for i := 0; i < n; i++ {
					if used[i] {
						continue
					}
					if best < 0 || load[i] < load[best] {
						best = i
					}
				}
				used[best] = true
				owners = append(owners, best)
				load[best] += w / int64(parts)
			}
			sort.Ints(owners)
			if !(len(owners) == 1 && owners[0] == core.ShardOfKey(k, n)) {
				moves[k] = owners
			}
			continue
		}
		s := leastLoaded()
		load[s] += w
		if s != core.ShardOfKey(k, n) {
			moves[k] = []int{s}
		}
	}
	if len(moves) == 0 {
		return nil
	}
	return moves
}
