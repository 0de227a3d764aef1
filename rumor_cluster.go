package rumor

import (
	"cmp"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/shard"
)

// Distributed deployment: a System can host its engine replicas in
// other processes. Each remote node runs ServeShard on a listener; the
// coordinator calls DialCluster instead of Optimize, handing it one dial
// target per shard. Everything above the replica boundary is unchanged —
// Push/PushColumns route and batch exactly as in-process sharding does,
// Drain is a cluster-wide barrier, live churn (AddQueryLive/RemoveQuery),
// Rebalance, RecoverShard, and Checkpoint/RestoreSharded all operate over
// the same RPCs the in-process path exercises through the wire codec.
//
// Failure contract (every sentinel matches with errors.Is, at any wrap
// depth):
//
//   - ErrShardUnreachable: a worker link is down and the client is
//     redialling with bounded exponential backoff. Transient —
//     Push/PushColumns fail fast instead of buffering unboundedly, and the
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
// protocol listener. Its Metrics holds only the worker-side counters;
// engine detail is reported through the coordinator's System.Metrics.
type ShardWorker = cluster.Worker

// NewShardWorker creates a shard worker; call Serve to run it.
func NewShardWorker() *ShardWorker { return cluster.NewWorker() }

// ClusterNode names one remote shard worker. Either Addr (dialed over
// TCP) or Dial (any net.Conn factory — in-process pipes in tests) must be
// set; Dial wins when both are. A System calls its nodes' Dial funcs one at
// a time, so they may share state; the workers still build their replicas
// side by side.
type ClusterNode struct {
	Addr string //rumor:allow unset deployment setting: the module's callers dial pipes
	Dial func() (net.Conn, error)
}

// ClusterConfig sizes a distributed System. The shard count is
// len(Nodes); node i hosts shard i. Batch size and queue depth come from
// the ShardConfig the System was made with (NewSharded). Protocol frames
// are bounded by 64 MiB (transport.DefaultMaxFrame), and the link to node
// i jitters its reconnect backoff deterministically, with seed 1+i.
type ClusterConfig struct {
	// Nodes lists the shard workers, one per shard.
	Nodes []ClusterNode

	// CallTimeout bounds one RPC attempt (default 5s). RetryMin/RetryMax
	// bound the reconnect backoff (defaults 50ms / 2s). FailTimeout is how
	// long an outage may last before the worker is declared lost and
	// ErrShardDead takes over from ErrShardUnreachable (default 15s).
	// HeartbeatInterval paces idle-link liveness probes (default 1s;
	// negative disables them).
	CallTimeout       time.Duration //rumor:allow unset deployment setting, tuned to its network
	RetryMin          time.Duration //rumor:allow unset deployment setting, tuned to its network
	RetryMax          time.Duration //rumor:allow unset deployment setting, tuned to its network
	FailTimeout       time.Duration //rumor:allow unset deployment setting, tuned to its network
	HeartbeatInterval time.Duration //rumor:allow unset deployment setting, tuned to its network
}

// DialCluster plans the registered queries exactly as Optimize does, then
// deploys the replicas onto remote shard workers instead of in-process
// goroutines: it connects to every node at once, ships the serialized plan
// in the handshake, and starts ingestion. It must be called exactly once,
// in place of Optimize.
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
	timeout := cmp.Or(cfg.CallTimeout, cluster.DefaultCallTimeout)
	epoch := time.Now().UnixNano()
	nodes := make([]cluster.Config, len(cfg.Nodes))
	var dials sync.Mutex // held while a node's Dial func runs
	for i, n := range cfg.Nodes {
		dial := func() (net.Conn, error) {
			dials.Lock()
			defer dials.Unlock()
			return n.Dial()
		}
		if n.Dial == nil {
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
			Seed:              cluster.DefaultSeed + int64(i),
		}
	}
	s.cfg.Shards = len(cfg.Nodes)
	sh, err := shard.NewCluster(plan, nil, s.cfg, nodes)
	if err != nil {
		return err
	}
	s.plan, s.sh = plan, sh
	return nil
}
