package rumor

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Checkpoint / restore: a full snapshot of a running system — the live
// physical plan (serialized structurally, not re-derived: the rule engine
// is free to make different tie-breaking choices on a re-optimization, and
// restore must reproduce operator and stream identity exactly), the
// partition plan with its routing-table version, every query's result
// counters, the frozen counts of removed queries, and every stateful
// operator group's stored window/instances as wire-encoded payloads, per
// replica (see shard.Engine.Checkpoint). Remote replicas are checkpointed
// and restored over the same RPCs the rebalancer uses.

// ErrShardDead reports that a shard worker died; recover with
// (*System).RecoverShard or restore from a checkpoint.
var ErrShardDead = shard.ErrShardDead

// ErrPartialMigration reports a mid-flight state-migration failure that
// was rolled back, leaving the engine usable under its old routing.
var ErrPartialMigration = shard.ErrPartialMigration

func frozenNames(removed map[string]int64) []wire.NamedCount {
	var out []wire.NamedCount
	for _, name := range slices.Sorted(maps.Keys(removed)) {
		out = append(out, wire.NamedCount{Name: name, Count: removed[name]})
	}
	return out
}

// Checkpoint writes a full snapshot of the running system to w: the
// shared plan, the partition plan (routing-table version and key-placement
// overlay included), per-replica operator state, and the merged counters.
// It runs at the same batch-queue barrier as a live delta — concurrent
// pushers block for the duration — and is serialized against other
// maintenance operations. The snapshot is self-contained: RestoreSharded
// rebuilds an equivalent system with identical plan shape, query IDs,
// result counts, and operator state.
func (s *System) Checkpoint(w io.Writer) error {
	if s.sh == nil {
		return notOptimized("Checkpoint")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	if err := faultpoint.Error("checkpoint.write"); err != nil {
		return err
	}
	start := time.Now()
	c := &wire.Checkpoint{
		Shards:   s.sh.NumShards(),
		Channels: s.ropts.Channels,
		Plan:     s.plan.Snapshot(),
	}
	// An inline shard routes nothing, so it records no partition plan; its
	// payloads still carry the key attributes the analysis assigns, so a
	// restore into more shards re-hashes on them.
	part := s.sh.PartitionPlan()
	if s.sh.Inline() {
		part = core.AnalyzePartition(s.plan)
	} else {
		c.Partition = part
	}
	s.nameMu.RLock()
	c.Frozen = frozenNames(s.removed)
	ids := make([]int, len(s.queries))
	for i, q := range s.queries {
		ids[i] = q.ID
	}
	s.nameMu.RUnlock()
	if err := s.sh.Checkpoint(c, ids, part.OpSideDists(s.plan)); err != nil {
		return err
	}
	if err := wire.WriteCheckpoint(w, c); err != nil {
		return err
	}
	obs.RecordEvent(obs.EvCheckpoint,
		fmt.Sprintf("shards=%d groups=%d", c.Shards, len(c.Groups)), time.Since(start))
	return nil
}

// Restore reads a checkpoint written by Checkpoint and rebuilds it as a
// system of one in-process shard (see RestoreSharded).
func Restore(r io.Reader) (*System, error) {
	return RestoreSharded(r, ShardConfig{Shards: 1})
}

// RestoreSharded reads a checkpoint written by Checkpoint and rebuilds the
// running system. With cfg.Shards zero (or equal to the checkpoint's
// count) the restore is positional: per-replica payloads land on the shard
// that wrote them, the key-placement overlay included. A different
// cfg.Shards redistributes at import time: keyed and multicast state
// re-hashes over the new width (the checkpoint payloads carry partition
// keys), replicated state is copied onto every replica, and unpartitioned
// state folds by old shard index — under a fresh routing table with a
// bumped version, since the overlay's shard indices do not survive a width
// change. Counters are width-independent (replica counters restore as
// merged bases).
func RestoreSharded(r io.Reader, cfg ShardConfig) (*System, error) {
	start := time.Now()
	c, err := wire.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if c.Shards < 1 {
		return nil, fmt.Errorf("rumor: checkpoint shard count %d", c.Shards)
	}
	if c.Plan == nil {
		return nil, fmt.Errorf("rumor: checkpoint has no plan")
	}
	catalog, err := core.CatalogDecls(c.Plan.Sources)
	if err != nil {
		return nil, fmt.Errorf("rumor: %w", err)
	}
	plan, err := core.RebuildPhysical(catalog, c.Plan)
	if err != nil {
		return nil, fmt.Errorf("rumor: rebuilding plan: %w", err)
	}
	part := c.Partition
	if part == nil {
		if c.Shards > 1 {
			return nil, fmt.Errorf("rumor: %d-shard checkpoint has no partition plan", c.Shards)
		}
		part = core.AnalyzePartition(plan)
	}
	cfg.Shards = cmp.Or(cfg.Shards, c.Shards)
	s := NewSharded(cfg)
	shards := s.cfg.Shards
	if shards != c.Shards {
		// The overlay's explicit key moves name shards of the old width;
		// start the new width from pure hash placement, one version later.
		part = part.WithMoves(nil)
	}
	enginePart := part
	if shards == 1 {
		enginePart = nil // one in-process shard routes nothing
	}
	sh, err := shard.New(plan, enginePart, s.cfg)
	if err != nil {
		return nil, err
	}
	if err := sh.Restore(c, part); err != nil {
		_ = sh.Close()
		return nil, err
	}
	s.catalog = catalog
	s.ropts = rules.Options{Channels: c.Channels}
	s.plan, s.sh = plan, sh
	for _, q := range plan.Queries {
		s.remember(q)
	}
	for _, fc := range c.Frozen {
		s.removed[fc.Name] = fc.Count
	}
	obs.RecordEvent(obs.EvRestore,
		fmt.Sprintf("shards=%d from=%d groups=%d", shards, c.Shards, len(c.Groups)), time.Since(start))
	return s, nil
}

// RecoverStats reports one shard crash recovery.
type RecoverStats = shard.RecoverStats

// RecoverShard absorbs a crashed shard into the survivors: the dead
// worker's unacknowledged batches are replayed into its intact engine
// replica, its operator state is serialized and re-imported on the
// surviving shards (keyed state fully re-hashed over the shrunken count),
// and ingestion resumes over N-1 shards under a bumped routing-table
// version. Call it after an operation fails with ErrShardDead. Safe to
// call while other goroutines Push.
func (s *System) RecoverShard() (RecoverStats, error) {
	if s.sh == nil {
		return RecoverStats{}, notOptimized("RecoverShard")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	return s.sh.RecoverShard()
}

// ---------------------------------------------------------------------------
// Incremental mode: the churn-op log
// ---------------------------------------------------------------------------

// SetChurnLog attaches an incremental checkpoint log: every subsequent
// live maintenance operation (AddQueryLive, RemoveQuery) appends one
// record — the operation, the query name, its logical tree, and the
// fingerprint of the plan it left behind — to w. Between full snapshots,
// a restorer replays the log onto the last snapshot with ReplayChurnLog
// and then re-pushes the events that followed the snapshot; the logged
// fingerprints check that the replayed maintenance reproduced the
// recorded plan. Pass nil to detach. Serialized against maintenance
// operations.
func (s *System) SetChurnLog(w io.Writer) {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	s.churnLog = w
}

// logChurn appends one record to the churn log. Called with churnMu held.
func (s *System) logChurn(ch *shard.Churn) error {
	if s.churnLog == nil {
		return nil
	}
	_, err := ch.Fingerprint()
	if err == nil {
		err = wire.AppendChurnRecord(s.churnLog, &ch.Rec)
	}
	if err != nil {
		return fmt.Errorf("rumor: churn log (operation applied, log incomplete): %w", err)
	}
	return nil
}

// ReplayChurnLog replays an incremental churn log (written via
// SetChurnLog) onto a system restored from the preceding full snapshot.
// Each add re-runs live plan maintenance and each remove unsubscribes
// again; after each, the plan's fingerprint must be the one the record
// logged. A log replayed onto a checkpoint of another plan fails at the
// first record that leaves a different plan, with that record applied.
// Event tuples pushed after the snapshot are not in the log; re-push them
// after replay to reach the pre-crash state.
func ReplayChurnLog(sys *System, r io.Reader) error {
	if sys.sh == nil {
		return notOptimized("ReplayChurnLog")
	}
	recs, err := wire.ReadChurnLog(r)
	if err != nil {
		return err
	}
	for i, rec := range recs {
		switch rec.Op {
		case wire.ChurnAdd:
			err = sys.AddQueryLive(rec.Name, rec.Root)
		case wire.ChurnRemove:
			err = sys.RemoveQuery(rec.Name)
		}
		if err != nil {
			return fmt.Errorf("rumor: churn record %d: %w", i, err)
		}
		sys.churnMu.Lock()
		fp, err := wire.FingerprintPlan(sys.plan)
		sys.churnMu.Unlock()
		if err != nil {
			return fmt.Errorf("rumor: churn record %d: %w", i, err)
		}
		if fp != rec.Fingerprint {
			return fmt.Errorf("rumor: churn record %d (%q): replayed plan fingerprint %016x, log recorded %016x", i, rec.Name, fp, rec.Fingerprint)
		}
	}
	return nil
}
