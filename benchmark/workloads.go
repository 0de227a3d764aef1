package main

// workload is one row of the ledger: a query set, a deployment and an
// entry point, chosen to load particular layers (see README.md).
type workload struct {
	name string
	why  string
	// pacedRate is the open-loop rate of the paced phase in events/s:
	// ≈40% of events_per_s as first measured on the seed commit (2 cores,
	// Xeon 2.1 GHz), two significant figures. It is a constant so that
	// latency is compared at the same offered load on every commit.
	pacedRate float64
	gen       func(seed int64, sc scale) (*inputs, error)

	// The deployment: a System pushed to in the given mode, or — with
	// sharded set — a 2-shard ShardedSystem, its replicas in-process or
	// (cluster) behind pipe listeners. The sharded pair counts results
	// only: DialCluster rejects callbacks.
	mode     pushMode
	channels bool
	sharded  bool
	cluster  bool
	churn    bool // live add/remove beside the pushes
	// verifyTicks is how much of lap 0 is checked against the oracle: all
	// of it, unless the oracle is too slow (Cayuga on Workload 2 runs at
	// ≈30k events/s).
	verifyTicks func(in *inputs, sc scale) int
	checkpoint  bool // the traced run ends with a Checkpoint and Restore
}

func wholeLap(in *inputs, _ scale) int { return len(in.feed.ticks) }
func w2Prefix(_ *inputs, sc scale) int { return sc.w2Verify }

func genW1Set(seed int64, sc scale) (*inputs, error) {
	return genW1(seed, sc.w1Queries, 0, sc.lapEvents)
}

func genW2Set(seed int64, sc scale) (*inputs, error) {
	return genW2(seed, sc.w2Queries, sc.lapEvents)
}

var workloads = []*workload{
	{
		name:      "w1_cols",
		why:       "Workload 1, 1000 queries, System.PushColumns: constant index, select block kernels and the shared seq m-op; few results, so fan-in is idle",
		pacedRate: 4.0e6, gen: genW1Set, mode: pushCols, verifyTicks: wholeLap,
	},
	{
		name:      "w1_rows",
		why:       "same plan and feed through per-row System.Push: the scalar path a block-path gain must not be bought from",
		pacedRate: 2.0e6, gen: genW1Set, mode: pushRows, verifyTicks: wholeLap,
	},
	{
		name:      "rel_cql",
		why:       "360 relational queries entered as CQL text, channels on: the only load on cql, agg, join, project and spilled channel memberships",
		pacedRate: 3.0e4, mode: pushCols, channels: true, verifyTicks: wholeLap, checkpoint: true,
		gen: func(seed int64, sc scale) (*inputs, error) { return genRel(seed, sc.relPerKind, sc.relLap), nil },
	},
	{
		name:      "w2_sharded2",
		why:       "Workload 2 seq, 1000 queries, 2 in-process shards: router, WAL, queues, worker loop and drain barrier with a seq-heavy engine",
		pacedRate: 8.2e5, gen: genW2Set, sharded: true, verifyTicks: w2Prefix, checkpoint: true,
	},
	{
		name:      "w2_cluster2",
		why:       "identical plan and feed over two pipe-connected shard workers: adds wire codec, framing, CRC and acks; the gap to w2_sharded2 is the wire",
		pacedRate: 4.2e5, gen: genW2Set, sharded: true, cluster: true, verifyTicks: w2Prefix,
	},
	{
		name:      "w1_churn",
		why:       "Workload 1, 250 queries, channels on, one live add and one remove every 32 ticks: the control path beside the data path",
		pacedRate: 1.8e6, mode: pushCols, channels: true, churn: true, verifyTicks: wholeLap,
		gen: func(seed int64, sc scale) (*inputs, error) {
			return genW1(seed, sc.churnBase, sc.livePool, sc.lapEvents)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cores is the GOMAXPROCS below which the deployment's numbers mean
// nothing: two shard workers and a pusher on one core measure the
// scheduler.
func (w *workload) cores() int {
	if w.sharded {
		return 2
	}
	return 1
}

// build takes the query set to a deployment that accepts pushes.
func (w *workload) build(in *inputs, o buildOpts) (*deployment, error) {
	if w.sharded {
		return buildSharded(in, w.cluster, o)
	}
	return buildSystem(in, w.mode, w.channels, o)
}
