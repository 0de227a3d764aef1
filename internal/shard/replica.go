package shard

// Replica abstraction: a shard's engine replica is either a goroutine in
// this process (localReplica, the classic runtime) or a worker process
// reached over the cluster protocol (remoteReplica). The router, the WAL,
// the barrier machinery, and every maintenance operation (Rebalance,
// ApplyDelta, RecoverShard, checkpoints) run against the replica
// interface and work unchanged in both deployments.
//
// The remote mapping of each operation:
//
//   - replayBatch → the at-least-once WAL batch RPC (the worker dedups by
//     seq, so the client's retries never double-apply);
//   - state registry access → export/import RPCs, with selective exports
//     reconstructed coordinator-side from an export-all payload (see
//     remoteRegistry.Export);
//   - result counters → cached from the worker's drain snapshot, refreshed
//     at every barrier (the same "stable only after Drain" contract the
//     local counters have);
//   - a lost worker (outage past FailTimeout, restarted process) → the
//     dead-shard machinery, exactly as a crashed local goroutine.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mop"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/wire"
)

// ErrShardUnreachable reports that a remote shard worker is currently
// unreachable: its client is retrying with backoff, and Push/PushColumns
// fail fast instead of blocking behind the outage. The state is
// transient — ingestion resumes exactly where it stopped once the link
// heals (nothing accepted before the outage is lost: it sits in the
// shard's WAL), or the worker is declared lost (ErrShardDead) when the
// outage outlasts the client's FailTimeout.
var ErrShardUnreachable = errors.New("shard: worker unreachable; retry, or await reconnection or loss declaration")

// Registry is the view of one replica's operator state registry that the
// migration, rebalance, recovery, and checkpoint machinery runs against.
// *mop.StateRegistry implements it directly (local replicas);
// remoteRegistry adapts it over the cluster protocol.
//
// Export is a destructive peek with a selection predicate: sel receives
// each item's key and its per-key ordinal in store order (counted over
// every item of that key, selected or not) and decides whether the item
// leaves the store. Import hands a payload to the store; with copied
// false the store takes ownership of the payload's tuples (for a remote
// registry the worker always imports its own decoded copy, so the
// coordinator-side payload is never consumed either way — unreleased
// pool-owned tuples are reclaimed by the garbage collector).
type Registry interface {
	Groups() []mop.GroupRef
	Export(opID, side, keyAttr int, sel func(key int64, ord int) bool) (*mop.StatePayload, error)
	Import(opID int, pl *mop.StatePayload, copied bool) error
	Histogram(opID, side, keyAttr int, h map[int64]int64)
}

var _ Registry = (*mop.StateRegistry)(nil)
var _ Registry = (*remoteRegistry)(nil)

// replica is one shard's engine replica, local or remote.
type replica interface {
	// replayBatch replays one WAL batch. An error wrapping ErrShardDead is
	// fatal (the worker loop exits and the dead-shard machinery takes
	// over); any other error is a sticky application replay error.
	replayBatch(seq int64, entries []cluster.Entry) error
	// refresh re-snapshots the replica's result counters at a barrier. An
	// error wrapping ErrShardDead means the replica is gone.
	refresh() error
	// stickyErr returns the replica's sticky first replay error when it is
	// tracked replica-side (remote workers); local replicas return nil
	// (their sticky error lives in worker.err).
	stickyErr() error
	resultCount(queryID int) int64
	totalResults() int64
	registry() Registry
	// applyDelta makes the replica follow one live add or remove; names
	// is the post-op source table.
	applyDelta(ch *Churn, names []string) error
	resetCounts() error
	// unreachable reports a transient outage (remote only).
	unreachable() bool
	// downChan returns a channel closed while the replica is unreachable
	// (replaced with an open one on reconnect); ingest-path delivery
	// selects on it to abort instead of blocking behind the outage. Local
	// replicas return nil — a select on it never fires.
	downChan() <-chan struct{}
	// revive re-establishes contact with a replica previously declared
	// lost, keeping its state (remote: a resume handshake). Local replicas
	// have nothing to revive.
	revive() error
	setIdx(i int)
	// close releases the replica's resources; shutdown additionally asks a
	// remote worker process to exit (best effort).
	close(shutdown bool)
	// localEngine returns the in-process engine, nil for remote replicas
	// (result callbacks cannot be wired across processes).
	localEngine() *engine.Engine
	// metricsInto folds the replica's engine-level telemetry into a
	// snapshot: directly for local replicas, via the stats RPC for remote
	// ones. Must run at a barrier (the replica quiescent).
	metricsInto(s *obs.Snapshot) error
	// health returns link health for remote replicas, nil for local ones.
	health() *cluster.Health
}

// Churn is one live add or remove as the replicas follow it. A local
// replica splices Delta, which the caller computed on Plan, the post-op
// plan the local replicas share. A remote worker replays Rec on its own
// copy of the plan under Options, splices the delta it computes there,
// and checks the fingerprint that Fingerprint sets in Rec.
type Churn struct {
	Delta   *core.Delta
	Rec     wire.ChurnRecord
	Options rules.Options
	Plan    *core.Physical
}

// Fingerprint sets Rec.Fingerprint to Plan's (core.(*Physical).Fingerprint,
// a walk of Plan) and returns it; a fingerprint already set is kept. Only
// a remote replica or a churn log asks for it, so a system with neither
// walks nothing per operation.
func (c *Churn) Fingerprint() uint64 {
	if c.Rec.Fingerprint == 0 {
		c.Rec.Fingerprint = c.Plan.Fingerprint()
	}
	return c.Rec.Fingerprint
}

// ---------------------------------------------------------------------
// Local replica.

type localReplica struct {
	e   *Engine
	idx int
	eng *engine.Engine
}

func (r *localReplica) replayBatch(_ int64, entries []cluster.Entry) error {
	if err := cluster.ReplayBatch(r.eng, r.e.srcNames, entries); err != nil {
		return fmt.Errorf("shard %d: %w", r.idx, err)
	}
	return nil
}

func (r *localReplica) refresh() error                { return nil }
func (r *localReplica) stickyErr() error              { return nil }
func (r *localReplica) resultCount(queryID int) int64 { return r.eng.ResultCount(queryID) }
func (r *localReplica) totalResults() int64           { return r.eng.TotalResults() }
func (r *localReplica) registry() Registry            { return r.eng.StateRegistry() }
func (r *localReplica) applyDelta(ch *Churn, _ []string) error {
	return r.eng.ApplyDelta(ch.Delta)
}
func (r *localReplica) resetCounts() error          { r.eng.ResetCounts(); return nil }
func (r *localReplica) unreachable() bool           { return false }
func (r *localReplica) downChan() <-chan struct{}   { return nil }
func (r *localReplica) revive() error               { return nil }
func (r *localReplica) setIdx(i int)                { r.idx = i }
func (r *localReplica) close(bool)                  {}
func (r *localReplica) localEngine() *engine.Engine { return r.eng }
func (r *localReplica) metricsInto(s *obs.Snapshot) error {
	r.eng.MetricsInto(s)
	return nil
}
func (r *localReplica) health() *cluster.Health { return nil }

// ---------------------------------------------------------------------
// Remote replica.

type remoteReplica struct {
	idx int
	cli *cluster.Client

	// unreach mirrors the client's OnDown transitions (set by the OnDown
	// callback, which must not take engine locks: it can fire from the
	// worker goroutine's replayBatch while the router holds mu). down
	// holds a chan struct{} closed while unreachable — the select-able
	// form of the same signal, swapped for an open channel on reconnect.
	unreach atomic.Bool
	down    atomic.Value

	// Cached counter snapshot from the worker's last drain, refreshed at
	// barriers. countsMu keeps concurrent readers race-free; the values
	// are meaningful only after Drain, like every shard counter.
	countsMu sync.Mutex
	counts   []int64
	total    int64
	sticky   error
}

// remoteFatal reports whether a client error is terminal for the shard.
func remoteFatal(err error) bool {
	return errors.Is(err, cluster.ErrWorkerLost) ||
		errors.Is(err, cluster.ErrBadHandshake) ||
		errors.Is(err, cluster.ErrClosed)
}

func (r *remoteReplica) replayBatch(seq int64, entries []cluster.Entry) error {
	// WAL entries are wire entries: a column run crosses as columns.
	if err := r.cli.Replay(seq, entries); err != nil {
		// Any replay failure is fatal: transport-terminal errors mean the
		// worker is lost, and a batch the worker rejects (e.g. a WAL seq
		// gap) is a delivery-invariant violation. Application errors inside
		// a batch are sticky worker-side and surface via refresh instead.
		return fmt.Errorf("shard %d: %v: %w", r.idx, err, ErrShardDead)
	}
	return nil
}

func (r *remoteReplica) refresh() error {
	counts, total, firstErr, err := r.cli.Drain()
	if err != nil {
		if remoteFatal(err) {
			return fmt.Errorf("shard %d: %v: %w", r.idx, err, ErrShardDead)
		}
		return fmt.Errorf("shard %d: %w", r.idx, err)
	}
	r.countsMu.Lock()
	r.counts = counts
	r.total = total
	if firstErr != "" && r.sticky == nil {
		r.sticky = fmt.Errorf("shard %d: %s", r.idx, firstErr)
	}
	r.countsMu.Unlock()
	return nil
}

func (r *remoteReplica) stickyErr() error {
	r.countsMu.Lock()
	defer r.countsMu.Unlock()
	return r.sticky
}

func (r *remoteReplica) resultCount(queryID int) int64 {
	r.countsMu.Lock()
	defer r.countsMu.Unlock()
	if queryID < 0 || queryID >= len(r.counts) {
		return 0
	}
	return r.counts[queryID]
}

func (r *remoteReplica) totalResults() int64 {
	r.countsMu.Lock()
	defer r.countsMu.Unlock()
	return r.total
}

func (r *remoteReplica) registry() Registry { return &remoteRegistry{rep: r} }

func (r *remoteReplica) applyDelta(ch *Churn, names []string) error {
	ch.Fingerprint()
	srcs := make([]core.SourceSnap, len(names))
	for i, name := range names {
		decl := ch.Plan.Catalog[name]
		srcs[i] = core.SourceSnap{Name: name, Label: decl.Label,
			Schema: core.SchemaSnap{Name: decl.Schema.Name, Attrs: decl.Schema.Attrs}}
	}
	_, err := r.cli.Churn(&cluster.ChurnCall{Rec: &ch.Rec, Options: ch.Options, Sources: srcs})
	return err
}

func (r *remoteReplica) resetCounts() error {
	if err := r.cli.ResetCounts(); err != nil {
		return err
	}
	r.countsMu.Lock()
	for i := range r.counts {
		r.counts[i] = 0
	}
	r.total = 0
	r.countsMu.Unlock()
	return nil
}

func (r *remoteReplica) unreachable() bool { return r.unreach.Load() }

func (r *remoteReplica) downChan() <-chan struct{} { return r.down.Load().(chan struct{}) }

func (r *remoteReplica) revive() error {
	// A healed partition finds the worker's replica intact and resumes
	// it. A restarted process refuses the resume and stays lost —
	// terminal, since the replica state recovery needs is gone with it.
	err := r.cli.Revive()
	if err != nil && remoteFatal(err) {
		return fmt.Errorf("shard %d: %v: %w", r.idx, err, ErrShardDead)
	}
	return err
}

func (r *remoteReplica) setIdx(i int) { r.idx = i }

func (r *remoteReplica) close(shutdown bool) {
	if shutdown {
		_ = r.cli.Shutdown()
		return
	}
	_ = r.cli.Close()
}

func (r *remoteReplica) localEngine() *engine.Engine { return nil }

func (r *remoteReplica) metricsInto(s *obs.Snapshot) error {
	ws, err := r.cli.Stats()
	if err != nil {
		if remoteFatal(err) {
			return fmt.Errorf("shard %d: %v: %w", r.idx, err, ErrShardDead)
		}
		return fmt.Errorf("shard %d: %w", r.idx, err)
	}
	s.Merge(ws)
	return nil
}

func (r *remoteReplica) health() *cluster.Health {
	h := r.cli.Health()
	return &h
}

// ---------------------------------------------------------------------
// Remote registry.

// remoteRegistry adapts one worker's state registry over the cluster
// protocol. Export-with-selection is reconstructed coordinator-side: the
// worker exports the whole side (its sel is always-true), the coordinator
// replays the caller's predicate over the payload — store order and the
// per-key ordinal counting are preserved by the export-all payload, so
// the split is exactly what a local selective export would have chosen —
// and the kept part is imported back.
type remoteRegistry struct {
	rep *remoteReplica
}

func (r *remoteRegistry) Groups() []mop.GroupRef { return r.rep.cli.Groups() }

func (r *remoteRegistry) Export(opID, side, keyAttr int, sel func(key int64, ord int) bool) (*mop.StatePayload, error) {
	pl, err := r.rep.cli.Export(opID, side, keyAttr)
	if err != nil {
		return nil, err
	}
	if pl == nil || pl.Len() == 0 {
		return pl, nil
	}
	sent, keep, err := splitBySel(pl, sel)
	if err != nil {
		return nil, err
	}
	if keep.Len() > 0 {
		if err := r.rep.cli.Import(opID, keep); err != nil {
			return nil, err
		}
	}
	return sent, nil
}

func (r *remoteRegistry) Import(opID int, pl *mop.StatePayload, _ bool) error {
	if pl == nil || pl.Len() == 0 {
		return nil
	}
	return r.rep.cli.Import(opID, pl)
}

func (r *remoteRegistry) Histogram(opID, side, keyAttr int, h map[int64]int64) {
	// Histograms steer load balancing only; an unreachable worker simply
	// contributes nothing to the estimate.
	_ = r.rep.cli.Histogram(opID, side, keyAttr, h)
}

// splitBySel partitions an export-all payload by a selection predicate,
// replaying the per-key store-order ordinal the way a registry-side
// selective export counts it (every item of a key advances the ordinal,
// selected or not).
func splitBySel(pl *mop.StatePayload, sel func(key int64, ord int) bool) (sent, keep *mop.StatePayload, err error) {
	items := pl.Items()
	ord := make(map[int64]int)
	sentItems := make([]mop.StateItem, 0, len(items))
	var keepItems []mop.StateItem
	for _, it := range items {
		o := ord[it.Key]
		ord[it.Key] = o + 1
		if sel(it.Key, o) {
			sentItems = append(sentItems, it)
		} else {
			keepItems = append(keepItems, it)
		}
	}
	if sent, err = mop.NewStatePayload(pl.Kind(), pl.Side(), sentItems); err != nil {
		return nil, nil, err
	}
	if keep, err = mop.NewStatePayload(pl.Kind(), pl.Side(), keepItems); err != nil {
		return nil, nil, err
	}
	return sent, keep, nil
}

// ---------------------------------------------------------------------
// Cluster construction.

// NewCluster builds a sharded engine whose replicas are remote shard
// workers (cluster.Serve / cmd/rumornode), one per entry of nodes —
// len(nodes) fixes the shard count, overriding cfg.Shards. Each node
// config needs at least Dial; ShardIdx, ShardCount, PlanBytes, and the
// source-name table are filled in here. Routing, WAL retention, barriers,
// rebalancing, recovery, and checkpointing behave exactly as in the
// in-process runtime; result callbacks (OnResult) are not supported
// (results are counted worker-side and merged from drain snapshots).
//
// The nodes are dialled concurrently, so the workers decode the plan,
// rebuild it and lower their engines side by side, and one node's OnDown
// may run while another node is dialled. If a dial fails, NewCluster
// closes every connection it made and reports the lowest failing shard.
//
// Failure semantics: a worker outage makes Push/PushColumns fail fast with
// ErrShardUnreachable while the client retries with backoff; an outage
// outlasting the node's FailTimeout (or a restarted worker process)
// declares the shard dead — ErrShardDead — after which RecoverShard
// migrates its state to the survivors over the wire, exactly as for a
// crashed in-process shard.
func NewCluster(p *core.Physical, part *core.PartitionPlan, cfg Config, nodes []cluster.Config) (*Engine, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: NewCluster needs at least one node config")
	}
	cfg.Shards = len(nodes)
	return build(p, part, cfg, nodes)
}

// dial connects a remote replica to each node, all at once: each Dial
// returns once its worker has decoded the plan, rebuilt it and lowered an
// engine, so the workers do that side by side. If any dial fails, dial
// closes every client that connected and reports the lowest failing shard.
func (e *Engine) dial(nodes []cluster.Config) ([]*remoteReplica, error) {
	planBytes, err := wire.EncodePlanBytes(e.plan.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("shard: encoding plan snapshot: %w", err)
	}
	reps := make([]*remoteReplica, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nc := range nodes {
		nc.ShardIdx, nc.ShardCount, nc.PlanBytes = i, len(nodes), planBytes
		rr := &remoteReplica{idx: i}
		rr.down.Store(make(chan struct{}))
		user := nc.OnDown
		nc.OnDown = func(down bool) {
			// Order keeps "counter > 0 ⇒ some flag set" (modulo benign
			// transition races): flag before increment, decrement
			// before clear. The client reports strict down/up
			// alternation, so the close below never double-closes.
			if down {
				rr.unreach.Store(true)
				close(rr.down.Load().(chan struct{}))
				e.numUnreach.Add(1)
			} else {
				e.numUnreach.Add(-1)
				rr.down.Store(make(chan struct{}))
				rr.unreach.Store(false)
			}
			if user != nil {
				user(down)
			}
		}
		reps[i] = rr
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr.cli, errs[i] = cluster.Dial(nc, e.srcNames)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, rr := range reps {
				if rr.cli != nil {
					rr.close(false)
				}
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return reps, nil
}
