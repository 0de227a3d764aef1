package shard

import (
	"errors"
	"fmt"
	"slices"
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
// Rebalance runs at the same batch-queue barrier as a live plan delta,
// compares the distribution of each stateful side under the old and new
// partition plans (core.OpSideDists) and moves exactly the state that is
// out of place (migrateGroupSide); where it goes is the package's
// placement rule (place). Counting survives sink transitions (partitioned
// ↔ replicated) because every rebalance folds the replica counters into a
// per-query base and resets them (rebaseCountsLocked).

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
// part may re-route sources, as a rebalancing live delta does, though it
// typically differs only in its key-placement overlay; pass nil to let
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

// touchedSide is one (group, side) the transition matrix will act on.
type touchedSide struct {
	ref    mop.GroupRef
	side   int
	od, nd core.SideDist
}

// transitionTouches reports whether migrateGroupSide moves or drops
// anything for an old→new distribution pair: keyed state may be out of
// place, and state entering or leaving replication copies or drops;
// anything else (multicast sides included) stays valid where it is.
func transitionTouches(od, nd core.SideDist) bool {
	repl := func(d core.SideDist) bool { return d.Dist == core.DistReplicated }
	return nd.Dist == core.DistKeyed || repl(od) != repl(nd) && nd.Dist != core.DistMulticast
}

// migrateStateLocked moves stored operator state from its placement under
// the current routes (whose distributions are oldD) to its placement
// under newPart. Called at a barrier with mu held; the plan must already
// reflect any delta applied to the replicas.
//
// Before anything moves, every group side the transition matrix will touch
// is snapshotted with a destructive peek, which survives as a restore
// point referencing the very tuples in the stores. A mid-migration failure
// then rolls the touched sides back to their snapshots and returns
// ErrPartialMigration with the engine fully usable; the engine is poisoned
// only if the rollback itself fails. Payload discards (which release µ
// pooled state) are deferred until the whole migration has succeeded,
// because the snapshots alias that state.
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
			od := core.SideDistAt(oldD, ref.OpID, side)
			nd := core.SideDistAt(newD, ref.OpID, side)
			if !transitionTouches(od, nd) {
				continue
			}
			pls := make([]*mop.StatePayload, len(regs))
			for i, reg := range regs {
				pl, err := e.peekLocked(reg, ref.OpID, side, -1)
				if err != nil {
					return st, err
				}
				pls[i] = pl
			}
			snap[[2]int{ref.OpID, side}] = pls
			touched = append(touched, touchedSide{ref: ref, side: side, od: od, nd: nd})
		}
	}
	dst := make([]Registry, len(regs))
	for i, reg := range regs {
		dst[i] = importFault{reg}
	}
	var discards []*mop.StatePayload
	for _, t := range touched {
		if err := migrateGroupSide(regs, dst, t, newPart, &st, &discards); err != nil {
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

// importFault fires the shard.rebalance.import fault point in front of
// every import a rebalance makes.
type importFault struct{ Registry }

func (r importFault) Import(opID int, pl *mop.StatePayload, copied bool) error {
	if err := faultpoint.Error("shard.rebalance.import"); err != nil {
		return err
	}
	return r.Registry.Import(opID, pl, copied)
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
			if _, err := reg.Export(t.ref.OpID, t.side, -1, exportAll); err != nil {
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

// migrateGroupSide applies the transition matrix to one (group, side):
// it decides which items leave each replica, and place decides where they
// go. Payloads whose pooled state must be released are appended to
// discards instead of being discarded inline: the caller's rollback
// snapshots alias that state, so releases only happen once the whole
// migration commits.
func migrateGroupSide(regs, dst []Registry, t touchedSide, part *core.PartitionPlan, st *RebalanceStats, discards *[]*mop.StatePayload) error {
	n := len(regs)
	keyAttr, from, drop := -1, 0, t.od.Dist == core.DistReplicated
	var leaves func(i int, key int64, ord int) bool
	switch {
	case drop && t.nd.Dist == core.DistKeyed:
		// Every replica holds an identical copy in identical store order,
		// so each drops what the per-key round robin over the store
		// ordinal gives another owner: no transfer at all.
		keyAttr = t.nd.Attr
		leaves = func(i int, key int64, ord int) bool {
			owners := part.Owners(key, n)
			return owners[ord%len(owners)] != i
		}
	case drop:
		// The copies collapse to shard 0's.
		from = 1
		leaves = func(int, int64, int) bool { return true }
	case t.nd.Dist == core.DistKeyed:
		// Items already in place never leave their replica.
		keyAttr = t.nd.Attr
		leaves = func(i int, key int64, _ int) bool { return !inPlace(part, key, n, i) }
	default:
		// Partitioned state becomes replicated: everything leaves.
		leaves = func(int, int64, int) bool { return true }
	}
	srcs := make([]*mop.StatePayload, n)
	for i := from; i < n; i++ {
		if err := faultpoint.Error("shard.rebalance.export"); err != nil {
			return err
		}
		pl, err := regs[i].Export(t.ref.OpID, t.side, keyAttr, func(key int64, ord int) bool { return leaves(i, key, ord) })
		if err != nil {
			return err
		}
		srcs[i] = pl
	}
	if drop {
		for _, pl := range srcs {
			st.Dropped += pl.Len()
		}
		*discards = append(*discards, srcs...)
		return nil
	}
	moved, err := place(t.ref.OpID, t.nd, part, srcs, nil, dst)
	st.Moved += moved
	if t.nd.Dist == core.DistReplicated {
		*discards = append(*discards, srcs...) // imported by copy everywhere
	}
	return err
}

// place puts the items leaving each source on the destination registries
// by the placement rule of the package doc, for one group side whose
// distribution under part is d, and returns the number of items imported:
// keyed and multicast items merge in timestamp order and spread
// round-robin per key over part.Owners(key, len(dst)); replicated items
// merge and go by copy to every destination, so the sources stay the
// caller's to discard; unpartitioned items of source i go to
// dst[home(i)].
func place(opID int, d core.SideDist, part *core.PartitionPlan, srcs []*mop.StatePayload, home func(src int) int, dst []Registry) (int, error) {
	n := len(dst)
	parts, to, copied := srcs, home, false
	self := func(i int) int { return i }
	switch d.Dist {
	case core.DistKeyed, core.DistMulticast:
		rr := make(map[int64]int)
		parts = mop.MergePayloads(srcs).SplitBy(n, func(key int64) int {
			owners := part.Owners(key, n)
			k := rr[key]
			rr[key] = k + 1
			return owners[k%len(owners)]
		})
		to = self
	case core.DistReplicated:
		parts, to, copied = slices.Repeat([]*mop.StatePayload{mop.MergePayloads(srcs)}, n), self, true
	}
	moved := 0
	for i, pl := range parts {
		if pl.Len() == 0 {
			continue
		}
		if err := dst[to(i)].Import(opID, pl, copied); err != nil {
			return moved, fmt.Errorf("importing operator %d state on shard %d: %w", opID, to(i), err)
		}
		moved += pl.Len()
	}
	return moved, nil
}

// inPlace reports whether key's owner set under part across n shards is
// exactly shard i.
func inPlace(part *core.PartitionPlan, key int64, n, i int) bool {
	owners := part.Owners(key, n)
	return len(owners) == 1 && owners[0] == i
}

// exportAll selects every stored item.
func exportAll(int64, int) bool { return true }

// peekLocked exports every item of one group side and re-imports it in
// place: the store keeps its items (compaction drops only tombstones,
// which carry no state) and the payload survives, aliasing them. A failed
// export (an unknown operator) leaves the engine as it was. A failed
// re-import leaves the side's items out of the store, so it disables the
// engine rather than let it run on missing state. Called at a barrier with
// mu held.
func (e *Engine) peekLocked(reg Registry, opID, side, keyAttr int) (*mop.StatePayload, error) {
	pl, err := reg.Export(opID, side, keyAttr, exportAll)
	if err != nil {
		return nil, err
	}
	if pl.Len() > 0 {
		if err := reg.Import(opID, pl, false); err != nil {
			e.stopLocked(false)
			return nil, fmt.Errorf("shard: snapshot re-import of operator %d side %d failed, engine disabled: %w", opID, side, err)
		}
	}
	return pl, nil
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
				d := core.SideDistAt(dists, ref.OpID, side)
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
