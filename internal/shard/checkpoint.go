package shard

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/mop"
	"repro/internal/wire"
)

// Checkpoint fills the state half of c at a batch-queue barrier
// (ingestion blocked, every worker quiescent): the merged count of each
// live query in queryIDs, the frozen final counts of queries removed by
// live deltas, and every replica's stored operator groups, tagged with the
// replica index and read by a destructive peek. dists gives the
// distribution of each stateful side. With remote replicas (NewCluster)
// the registries are RPC adapters, so checkpoints work over the wire
// unchanged.
func (e *Engine) Checkpoint(c *wire.Checkpoint, queryIDs []int, dists map[int][]core.SideDist) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	if err := e.quiesceLocked(); err != nil {
		return err
	}
	slices.Sort(queryIDs)
	e.statsMu.RLock()
	for _, qid := range queryIDs {
		if n := e.mergedCountLocked(qid); n != 0 {
			c.Counts = append(c.Counts, wire.QueryCount{ID: qid, Count: n})
		}
	}
	for _, qid := range slices.Sorted(maps.Keys(e.frozen)) {
		c.FrozenByID = append(c.FrozenByID, wire.QueryCount{ID: qid, Count: e.frozen[qid]})
	}
	e.statsMu.RUnlock()
	for i, reg := range e.registriesLocked() {
		for _, ref := range reg.Groups() {
			for _, side := range ref.Sides {
				// Keyed and multicast payloads carry partition keys: a
				// restore into another shard count re-hashes on them.
				keyAttr := -1
				if d := core.SideDistAt(dists, ref.OpID, side); d.Dist == core.DistKeyed || d.Dist == core.DistMulticast {
					keyAttr = d.Attr
				}
				pl, err := e.peekLocked(reg, ref.OpID, side, keyAttr)
				if err != nil {
					return err
				}
				if pl.Len() > 0 {
					c.Groups = append(c.Groups, wire.GroupState{Shard: i, OpID: ref.OpID, Payload: pl})
				}
			}
		}
	}
	return nil
}

// Restore imports the state half of checkpoint c into a freshly built
// engine. At the checkpoint's width each payload lands on the replica that
// wrote it; at another width the state is redistributed under part (see
// redistributeGroups). The checkpoint's counters seed the merged counts:
// live queries' as bases (the replica counters start at zero), removed
// queries' as frozen final counts, and the query-ID range grows to cover
// every seeded ID, so TotalResults keeps counting frozen queries whose IDs
// exceed the restored plan's.
func (e *Engine) Restore(c *wire.Checkpoint, part *core.PartitionPlan) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.quiesceLocked(); err != nil {
		return err
	}
	regs := e.registriesLocked()
	if len(regs) != c.Shards {
		if err := redistributeGroups(c, e.plan, part, regs); err != nil {
			return err
		}
	} else {
		for _, g := range c.Groups {
			if g.Shard < 0 || g.Shard >= len(regs) {
				return fmt.Errorf("shard: checkpoint state for shard %d of %d", g.Shard, len(regs))
			}
			if g.Payload.Len() == 0 {
				continue
			}
			if err := regs[g.Shard].Import(g.OpID, g.Payload, false); err != nil {
				return fmt.Errorf("shard: restoring operator %d state on shard %d: %w", g.OpID, g.Shard, err)
			}
		}
	}
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	for _, qc := range c.Counts {
		e.base[qc.ID] = qc.Count
		e.maxQuery = max(e.maxQuery, qc.ID)
	}
	if len(c.FrozenByID) > 0 && e.frozen == nil {
		e.frozen = make(map[int]int64, len(c.FrozenByID))
	}
	for _, qc := range c.FrozenByID {
		e.frozen[qc.ID] = qc.Count
		e.maxQuery = max(e.maxQuery, qc.ID)
	}
	return nil
}

// redistributeGroups imports a checkpoint's operator state into a system
// of a different shard count. Every old replica's payload of a side
// leaves, and place puts it under part at the new width; a replicated
// side places the first old replica's copy (they are identical) and drops
// the rest, and an unpartitioned side folds by old shard index.
func redistributeGroups(c *wire.Checkpoint, plan *core.Physical, part *core.PartitionPlan, regs []Registry) error {
	dists := part.OpSideDists(plan)
	type groupSide struct{ op, side int }
	var order []groupSide
	buckets := make(map[groupSide][]wire.GroupState)
	for _, g := range c.Groups {
		if g.Shard < 0 || g.Shard >= c.Shards {
			return fmt.Errorf("shard: checkpoint state for shard %d of %d", g.Shard, c.Shards)
		}
		if g.Payload.Len() == 0 {
			continue
		}
		k := groupSide{g.OpID, g.Payload.Side()}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], g)
	}
	for _, k := range order {
		bucket := buckets[k]
		d := core.SideDistAt(dists, k.op, k.side)
		srcs := make([]*mop.StatePayload, len(bucket))
		for i, g := range bucket {
			srcs[i] = g.Payload
		}
		if d.Dist == core.DistReplicated {
			srcs = srcs[:1]
		}
		home := func(i int) int { return bucket[i].Shard % len(regs) }
		if _, err := place(k.op, d, part, srcs, home, regs); err != nil {
			return fmt.Errorf("shard: restoring: %w", err)
		}
	}
	return nil
}
