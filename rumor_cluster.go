package rumor

import (
	"cmp"
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/shard"
)

// Distributed deployment: a System can host its engine replicas in
// other processes. Each remote node runs ServeShard on a listener; the
// coordinator calls DialCluster instead of Optimize, handing it one dial
// target per shard. Everything above the replica boundary is unchanged —
// Push/PushBatch route and batch exactly as in-process sharding does,
// Drain is a cluster-wide barrier, live churn (AddQueryLive/RemoveQuery),
// Rebalance, RecoverShard, and Checkpoint/RestoreSharded all operate over
// the same RPCs the in-process path exercises through the wire codec.
//
// Failure contract (every sentinel matches with errors.Is, at any wrap
// depth):
//
//   - ErrShardUnreachable: a worker link is down and the client is
//     redialling with bounded exponential backoff. Transient —
//     Push/PushBatch fail fast instead of buffering unboundedly, and the
//     same call succeeds again once the link heals. Nothing was lost:
//     batches are WAL-logged before shipment and delivered at-least-once
//     (workers deduplicate by batch sequence).
//   - ErrShardDead: a worker was declared lost — the outage outlasted the
//     failure timeout, the process restarted (its boot ID changed, so its
//     replica state is gone), or its replica hit a fatal replay error.
//     Terminal for that shard: recover with RecoverShard, which replays
//     the dead shard's unacknowledged WAL suffix and migrates its state to
//     the survivors over the wire, or restore from a checkpoint.
//   - ErrPartialMigration: a mid-flight state migration failed and was
//     rolled back; the engine is still serving under its old routing.
//
// RecoverShard on a partitioned (not restarted) worker first tries to
// revive the link: if the worker answers with its replica intact, catch-up
// is deduplicated by its sequence cursor and the shard rejoins without
// state movement; revive and transport failures during recovery return
// ErrShardUnreachable without damaging the engine, so the call is safely
// retryable.

// ErrShardUnreachable reports a transient worker outage on a cluster
// deployment: the link is down, reconnection is in progress, and pushes
// fail fast until the link heals or the worker is declared lost
// (ErrShardDead). Matches with errors.Is.
var ErrShardUnreachable = shard.ErrShardUnreachable

// ServeShard runs one shard worker on the listener, blocking until a
// coordinator sends a shutdown or the listener is closed (in which case
// the Accept error is returned). The worker is passive: the coordinator's
// handshake ships the plan, assigns the shard index, and drives all
// execution. A broken connection sends the worker back to Accept with its
// replica state retained — the coordinator redials and resumes. One
// ServeShard call hosts exactly one replica; run one per process
// (cmd/rumornode) or several on distinct listeners in-process for tests.
func ServeShard(lis net.Listener) error {
	return cluster.Serve(lis, cluster.WorkerConfig{})
}

// ShardWorker is an addressable shard worker: like ServeShard, but the
// handle exposes the worker's own telemetry while it serves, so a node
// process (cmd/rumornode) can publish a metrics endpoint alongside the
// protocol listener.
type ShardWorker struct {
	w *cluster.Worker
}

// NewShardWorker creates a shard worker; call Serve to run it.
func NewShardWorker() *ShardWorker {
	return &ShardWorker{w: cluster.NewWorker(cluster.WorkerConfig{})}
}

// Serve runs the worker on the listener exactly as ServeShard does.
func (sw *ShardWorker) Serve(lis net.Listener) error { return sw.w.Serve(lis) }

// Metrics snapshots the worker-side counters that are safe to read while
// Serve runs: batches applied, entries replayed, dedup skips, reply-cache
// hits, and the boot identity. Engine detail is reported through the
// coordinator's System.Metrics instead (fetched at a quiesce
// barrier over the stats RPC).
func (sw *ShardWorker) Metrics() *Metrics {
	return metricsFromSnapshot(sw.w.Metrics())
}

// ClusterNode names one remote shard worker. Either Addr (dialed over
// TCP) or Dial (any net.Conn factory — in-process pipes in tests) must be
// set; Dial wins when both are.
type ClusterNode struct {
	Addr string
	Dial func() (net.Conn, error)
}

// ClusterConfig sizes a distributed System. The shard count is
// len(Nodes); node i hosts shard i.
type ClusterConfig struct {
	// Nodes lists the shard workers, one per shard.
	Nodes []ClusterNode

	// BatchSize and QueueDepth mirror ShardConfig (defaults 256 / 8).
	BatchSize  int
	QueueDepth int

	// CallTimeout bounds one RPC attempt (default 5s). RetryMin/RetryMax
	// bound the reconnect backoff (defaults 50ms / 2s). FailTimeout is how
	// long an outage may last before the worker is declared lost and
	// ErrShardDead takes over from ErrShardUnreachable (default 15s).
	// HeartbeatInterval paces idle-link liveness probes (default 1s;
	// negative disables them).
	CallTimeout       time.Duration
	RetryMin          time.Duration
	RetryMax          time.Duration
	FailTimeout       time.Duration
	HeartbeatInterval time.Duration

	// MaxFrame bounds protocol frames (default 64 MiB).
	MaxFrame int
	// Seed makes backoff jitter deterministic (default 1); link i jitters
	// with Seed+i.
	Seed int64
}

// DialCluster plans the registered queries exactly as Optimize does, then
// deploys the replicas onto remote shard workers instead of in-process
// goroutines: it connects to every node, ships the serialized plan in the
// handshake, and starts ingestion. It must be called exactly once, in
// place of Optimize.
//
// Result callbacks are not supported on a cluster deployment — results
// are counted per shard and merged (ResultCount/TotalResults), not
// streamed back tuple-by-tuple — so DialCluster fails if OnResult was
// registered, and a callback registered afterwards is never invoked for
// remote replicas.
func (s *System) DialCluster(opt Options, cfg ClusterConfig) error {
	if s.sh != nil {
		return fmt.Errorf("rumor: system already optimized")
	}
	if len(cfg.Nodes) == 0 {
		return fmt.Errorf("rumor: DialCluster needs at least one node")
	}
	if s.onResult != nil {
		return fmt.Errorf("rumor: OnResult callbacks are not supported on a cluster deployment; results are merged counters, use ResultCount")
	}
	plan, err := s.buildPlan(opt)
	if err != nil {
		return err
	}
	seed := cmp.Or(cfg.Seed, 1)
	timeout := cmp.Or(cfg.CallTimeout, 5*time.Second)
	epoch := time.Now().UnixNano()
	nodes := make([]cluster.Config, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		dial := n.Dial
		if dial == nil {
			if n.Addr == "" {
				return fmt.Errorf("rumor: cluster node %d has neither Addr nor Dial", i)
			}
			addr := n.Addr
			dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
		}
		nodes[i] = cluster.Config{
			Dial:              dial,
			Epoch:             epoch,
			CallTimeout:       cfg.CallTimeout,
			RetryMin:          cfg.RetryMin,
			RetryMax:          cfg.RetryMax,
			FailTimeout:       cfg.FailTimeout,
			HeartbeatInterval: cfg.HeartbeatInterval,
			MaxFrame:          cfg.MaxFrame,
			Seed:              seed + int64(i),
		}
	}
	s.cfg = ShardConfig{Shards: len(cfg.Nodes), BatchSize: cfg.BatchSize, QueueDepth: cfg.QueueDepth}
	sh, err := shard.NewCluster(plan, nil, shard.Config(s.cfg), nodes)
	if err != nil {
		return err
	}
	s.plan, s.sh = plan, sh
	return nil
}
