package shard

// Shard crash recovery: a worker killed by a panic (injected via
// faultpoint or a genuine bug) leaves its engine replica intact at the
// last fully-completed batch — kills land at batch boundaries — plus an
// unacknowledged suffix of batches in the router-side WAL. RecoverShard
// absorbs the dead shard into the survivors:
//
//  1. quiesce the surviving workers (the barrier every maintenance
//     operation uses), with the dead shard's pending buffer flushed into
//     its WAL;
//  2. catch-up: replay the dead shard's unacknowledged WAL batches into
//     its engine on the caller goroutine, bringing the corpse to exactly
//     the state it would have reached unfaulted (broadcast and multicast
//     copies delivered to survivors are never re-sent — the WAL is
//     per-shard, post-routing);
//  3. fold every replica's result counters (including the caught-up
//     corpse) into the engine's base table;
//  4. migrate the corpse's operator state to the survivors by the
//     package's placement rule, with keyed sides fully re-hashed over the
//     survivor count; every migrated payload travels through the wire
//     codec (encode → decode), exercising the same serialized transport a
//     cross-process recovery would use;
//  5. shrink the runtime to the survivors, drop the key-placement overlay
//     (its shard indices are meaningless after the shrink), bump the
//     routing-table version, and resume ingestion. A single in-process
//     survivor then runs inline, as an engine built with one shard does.
//
// Frozen counts of removed queries are untouched: they were captured at
// earlier barriers and never re-derived from replica counters.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/mop"
	"repro/internal/obs"
	"repro/internal/wire"
)

// RecoverStats reports one shard crash recovery.
type RecoverStats struct {
	Shard    int   // index of the shard that was recovered away
	Replayed int   // WAL entries replayed into the dead replica
	Moved    int   // state items re-imported on survivors
	Dropped  int   // replicated copies that died with the replica
	Bytes    int   // serialized payload bytes transported
	Shards   int   // shard count after recovery
	Version  int   // routing-table version now in effect
	PauseNS  int64 // barrier to resume
}

// RecoverShard detects the dead shard, replays its unacknowledged WAL
// suffix into its engine, migrates its state to the surviving shards, and
// resumes ingestion over the shrunken shard set. Exactly one worker must
// be dead; recover repeatedly for multiple failures. Concurrent
// Push/PushBatch callers block for the duration; maintenance operations
// must be serialized by the caller.
func (e *Engine) RecoverShard() (RecoverStats, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	var st RecoverStats
	if e.closed {
		return st, errClosed
	}
	if err := e.quiesceLiveLocked(); err != nil {
		return st, err
	}
	dead := -1
	for i, d := range e.dead {
		if d {
			if dead >= 0 {
				return st, fmt.Errorf("%d workers dead; recover one at a time: %w", e.numDead, ErrShardDead)
			}
			dead = i
		}
	}
	if dead < 0 {
		return st, fmt.Errorf("shard: no dead worker to recover")
	}
	if len(e.workers) == 1 {
		return st, fmt.Errorf("shard: cannot recover the only shard; restore from a checkpoint")
	}
	st.Shard = dead

	// Catch-up. The dead worker's goroutine has exited (its done channel
	// closed, observed under mu), so its replica is safely owned by this
	// goroutine. A remote replica is first revived: for a shard declared
	// dead by a network partition the same worker process — state intact —
	// answers the redial and the catch-up replay is deduplicated by its
	// batch-seq cursor; a restarted process presents a new boot ID, stays
	// lost, and the revive fails. Revive and transport failures during
	// catch-up return ErrShardUnreachable without poisoning the engine:
	// nothing has been mutated that a retried RecoverShard would not redo.
	w := e.workers[dead]
	if err := w.rep.revive(); err != nil {
		if errors.Is(err, ErrShardDead) {
			// Terminal: the worker is gone with its replica state (restarted
			// process, or an outage that outlasted FailTimeout again). Retry
			// once the worker returns, or restore from a checkpoint.
			return st, fmt.Errorf("shard %d replica state unavailable (%v); retry when the worker returns, or restore from a checkpoint: %w", dead, err, ErrShardDead)
		}
		return st, fmt.Errorf("shard %d worker cannot be revived (%v): %w", dead, err, ErrShardUnreachable)
	}
	errBefore := w.err
	completed := w.completed.Load()
	for _, rec := range e.wal[dead] {
		if rec.seq <= completed {
			continue
		}
		if err := w.rep.replayBatch(rec.seq, rec.b.entries); err != nil {
			if errors.Is(err, ErrShardDead) {
				return st, fmt.Errorf("shard %d catch-up interrupted (%v): %w", dead, err, ErrShardUnreachable)
			}
			if w.err == nil {
				w.err = err
			}
		}
		st.Replayed += rec.b.rows
	}
	if w.err != errBefore {
		e.stopLocked(false)
		return st, fmt.Errorf("shard: catch-up replay failed, engine disabled: %w", w.err)
	}
	// The corpse skipped the quiesce barrier's counter refresh (it was
	// dead); fetch its counters now that it is caught up.
	if err := w.rep.refresh(); err != nil {
		return st, fmt.Errorf("shard %d counters unavailable (%v): %w", dead, err, ErrShardUnreachable)
	}

	// Counter fold over all replicas, corpse included, under the outgoing
	// partition plan (replicated sinks still merge from shard 0, which may
	// be the caught-up corpse).
	if err := e.rebaseCountsLocked(); err != nil {
		e.stopLocked(false)
		return st, fmt.Errorf("shard: counter rebase failed, engine disabled: %w", err)
	}

	// State migration to the survivors.
	newPart := e.part.WithMoves(nil)
	if err := e.migrateForRecovery(dead, newPart, &st); err != nil {
		e.stopLocked(false)
		return st, fmt.Errorf("shard: recovery migration failed, engine disabled: %w", err)
	}

	// Shrink the runtime to the survivors.
	for _, rec := range e.wal[dead] {
		e.recycleBatch(rec)
	}
	e.workers = slices.Delete(e.workers, dead, dead+1)
	e.pending = slices.Delete(e.pending, dead, dead+1)
	e.wal = slices.Delete(e.wal, dead, dead+1)
	e.walSeq = slices.Delete(e.walSeq, dead, dead+1)
	e.sent = slices.Delete(e.sent, dead, dead+1)
	e.dead = slices.Delete(e.dead, dead, dead+1)
	e.numDead--
	w.rep.close(true)
	for i, sw := range e.workers {
		sw.idx = i
		sw.rep.setIdx(i)
	}
	if sw := e.workers[0]; len(e.workers) == 1 && sw.rep.localEngine() != nil {
		// Quiescent: the worker exits on its empty queue, and the survivor
		// has acknowledged every WAL batch, so pruning empties the WAL.
		sw.close()
		<-sw.done
		e.pruneWAL(0)
		e.inline = sw.rep.localEngine()
	}
	e.cfg.Shards = len(e.workers)
	e.statsMu.Lock()
	e.part = newPart
	e.statsMu.Unlock()
	e.rebuildSourceRoutes(newPart)
	// Re-wire result callbacks: the replicated-sink gate is keyed on the
	// worker index, which just shifted for shards past the dead one, and
	// an inline survivor calls the user callback directly.
	e.wireCallbacks()
	st.Shards = len(e.workers)
	st.Version = newPart.RoutingVersion()
	pause := time.Since(start)
	st.PauseNS = pause.Nanoseconds()
	if st.Replayed > 0 {
		obs.RecordEvent(obs.EvWALReplay, fmt.Sprintf("shard=%d entries=%d", dead, st.Replayed), 0)
	}
	obs.RecordEvent(obs.EvShardRecover,
		fmt.Sprintf("dead=%d replayed=%d moved=%d shards=%d", dead, st.Replayed, st.Moved, st.Shards),
		pause)
	return st, nil
}

// migrateForRecovery moves the dead replica's state to the survivors and
// re-hashes keyed sides over the survivor count: the dead replica's items
// all leave, a survivor's keyed items leave unless they are in place, and
// each travels through the wire codec before place imports it. Unlike a
// same-count rebalance there is no rollback: the failure mode it would
// protect against (a half-moved store) is indistinguishable from the crash
// being recovered, and the caller falls back to checkpoint restore. Called
// with mu held.
//
//rumor:holdslock
func (e *Engine) migrateForRecovery(dead int, newPart *core.PartitionPlan, st *RecoverStats) error {
	regs := e.registriesLocked()
	survivors := slices.Delete(slices.Clone(regs), dead, dead+1)
	firstSurvivor := func(int) int { return 0 }
	dists := newPart.OpSideDists(e.plan)
	for _, ref := range regs[0].Groups() {
		for _, side := range ref.Sides {
			d := core.SideDistAt(dists, ref.OpID, side)
			keyAttr := -1
			if d.Dist == core.DistKeyed || d.Dist == core.DistMulticast {
				keyAttr = d.Attr
			}
			srcs := make([]*mop.StatePayload, len(regs))
			for i, reg := range regs {
				if i != dead && keyAttr < 0 {
					continue // only key-placed state leaves a survivor
				}
				ni := i // i's index among the survivors
				if i > dead {
					ni--
				}
				pl, err := reg.Export(ref.OpID, side, keyAttr, func(key int64, _ int) bool {
					return i == dead || !inPlace(newPart, key, len(survivors), ni)
				})
				if err != nil {
					return err
				}
				if d.Dist == core.DistReplicated {
					// Every survivor already holds a full copy; the dead
					// replica's copy dies with it.
					st.Dropped += pl.Len()
					pl.Discard()
					continue
				}
				var nbytes int
				if srcs[i], nbytes, err = reencodePayload(pl); err != nil {
					return err
				}
				st.Bytes += nbytes
			}
			moved, err := place(ref.OpID, d, newPart, srcs, firstSurvivor, survivors)
			st.Moved += moved
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// reencodePayload ships a payload through the wire codec — encode, then
// decode into fresh tuples and bitsets — and releases the original's
// pooled state. This is the serialized state transport: the bytes in the
// middle are exactly what a cross-process recovery would put on the wire,
// so every recovery exercises the codec end to end.
func reencodePayload(pl *mop.StatePayload) (*mop.StatePayload, int, error) {
	if pl.Len() == 0 {
		return pl, 0, nil
	}
	raw := wire.EncodePayloadBytes(pl)
	out, err := wire.DecodePayloadBytes(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("payload re-encode round trip: %w", err)
	}
	if out.Len() != pl.Len() {
		return nil, 0, fmt.Errorf("payload re-encode round trip: %d items in, %d out", pl.Len(), out.Len())
	}
	pl.Discard()
	return out, len(raw), nil
}
