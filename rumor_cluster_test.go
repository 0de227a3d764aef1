package rumor_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	rumor "repro"
	"repro/internal/transport"
)

// startPipeWorkers serves n shard workers on in-memory pipe listeners and
// returns cluster nodes dialing them plus a done channel per worker.
func startPipeWorkers(t *testing.T, n int) ([]rumor.ClusterNode, []chan struct{}) {
	t.Helper()
	nodes := make([]rumor.ClusterNode, n)
	dones := make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		lis := transport.NewPipeListener()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rumor.ServeShard(lis)
		}()
		t.Cleanup(func() {
			lis.Close()
			<-done
		})
		nodes[i] = rumor.ClusterNode{Dial: lis.Dial}
		dones[i] = done
	}
	return nodes, dones
}

func pushPerf(t *testing.T, push func(string, int64, ...int64) error, lo, hi int64) {
	t.Helper()
	for ts := lo; ts < hi; ts++ {
		pid := ts % 16
		load := (ts * 7) % 101
		if err := push("CPU", ts, pid, load); err != nil {
			t.Fatal(err)
		}
	}
}

// A ShardedSystem deployed over in-process pipe workers must produce
// exactly the counts of an unsharded reference — through steady pushes, a
// drain barrier, an online rebalance, and a checkpoint taken over the
// wire; Close shuts the workers down.
func TestDialClusterEquivalence(t *testing.T) {
	ref := rumor.New()
	if err := ref.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: 8})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	nodes, dones := startPipeWorkers(t, 2)
	if err := sys.DialCluster(rumor.Options{Channels: true}, rumor.ClusterConfig{
		Nodes:             nodes,
		HeartbeatInterval: -1,
	}); err != nil {
		t.Fatal(err)
	}
	pushPerf(t, ref.Push, 0, 200)
	pushPerf(t, sys.Push, 0, 200)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Rebalance(); err != nil {
		t.Fatal(err)
	}
	pushPerf(t, ref.Push, 200, 400)
	pushPerf(t, sys.Push, 200, 400)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint over the wire: remote registries export through the same
	// RPCs rebalancing uses; the image must restore into a working local
	// deployment with identical counts.
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := rumor.RestoreSharded(bytes.NewReader(buf.Bytes()), rumor.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	for _, q := range []string{"hot", "warm"} {
		if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want {
			t.Fatalf("query %s: %d results, want %d", q, got, want)
		}
		if got, want := restored.ResultCount(q), ref.ResultCount(q); got != want {
			t.Fatalf("restored query %s: %d results, want %d", q, got, want)
		}
	}
	if got, want := sys.TotalResults(), ref.TotalResults(); got != want || got == 0 {
		t.Fatalf("total = %d, want %d (nonzero)", got, want)
	}

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for i, done := range dones {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d did not shut down after Close", i)
		}
	}
}

// The TCP path: DialCluster with bare addresses against ServeShard on
// loopback listeners, the exact shape of a real multi-process deployment.
func TestDialClusterTCP(t *testing.T) {
	ref := rumor.New()
	if err := ref.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := ref.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: 8})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	const shards = 2
	nodes := make([]rumor.ClusterNode, shards)
	for i := 0; i < shards; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			rumor.ServeShard(lis)
		}()
		t.Cleanup(func() {
			lis.Close()
			<-done
		})
		nodes[i] = rumor.ClusterNode{Addr: lis.Addr().String()}
	}
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pushPerf(t, ref.Push, 0, 300)
	pushPerf(t, sys.Push, 0, 300)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"hot", "warm"} {
		if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want {
			t.Fatalf("query %s: %d results, want %d", q, got, want)
		}
	}
	if got, want := sys.TotalResults(), ref.TotalResults(); got != want || got == 0 {
		t.Fatalf("total = %d, want %d (nonzero)", got, want)
	}
}

// DialCluster guards its contract: no nodes, double deployment, and a
// registered OnResult callback are all rejected up front.
func TestDialClusterRejections(t *testing.T) {
	sys := rumor.NewSharded(rumor.ShardConfig{})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{}); err == nil {
		t.Fatal("DialCluster with no nodes should fail")
	}
	sys.OnResult(func(string, int64, []int64) {})
	nodes, _ := startPipeWorkers(t, 1)
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes}); err == nil {
		t.Fatal("DialCluster with OnResult registered should fail")
	}

	sys2 := buildShardedPerf(t, 2)
	defer sys2.Close()
	nodes2, _ := startPipeWorkers(t, 1)
	if err := sys2.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes2}); err == nil {
		t.Fatal("DialCluster after Optimize should fail")
	}
}

// A severed worker link surfaces as ErrShardUnreachable at the public
// Push, matching with errors.Is; pushes rejected during the outage resume
// exactly after the link heals.
func TestDialClusterOutageSurfacesTypedError(t *testing.T) {
	ref := rumor.New()
	if err := ref.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := ref.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: 4, QueueDepth: 2})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}

	const shards = 2
	var conns struct {
		mu sync.Mutex
		v  [shards]bool // gate: true refuses redial
		c  [shards]net.Conn
	}
	nodes := make([]rumor.ClusterNode, shards)
	for i := 0; i < shards; i++ {
		lis := transport.NewPipeListener()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rumor.ServeShard(lis)
		}()
		t.Cleanup(func() {
			lis.Close()
			<-done
		})
		i := i
		nodes[i] = rumor.ClusterNode{Dial: func() (net.Conn, error) {
			conns.mu.Lock()
			gated := conns.v[i]
			conns.mu.Unlock()
			if gated {
				return nil, errors.New("gated")
			}
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			conns.mu.Lock()
			conns.c[i] = nc
			conns.mu.Unlock()
			return nc, nil
		}}
	}
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{
		Nodes:             nodes,
		RetryMin:          time.Millisecond,
		RetryMax:          5 * time.Millisecond,
		FailTimeout:       30 * time.Second,
		HeartbeatInterval: -1,
	}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	pushPerf(t, ref.Push, 0, 100)
	pushPerf(t, sys.Push, 0, 100)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}

	// Sever link 1 and gate redials.
	conns.mu.Lock()
	conns.v[1] = true
	c := conns.c[1]
	conns.mu.Unlock()
	c.Close()

	rejectedAt := int64(-1)
	for ts := int64(100); ts < 1000; ts++ {
		pid := ts % 16
		load := (ts * 7) % 101
		if err := ref.Push("CPU", ts, pid, load); err != nil {
			t.Fatal(err)
		}
		err := sys.Push("CPU", ts, pid, load)
		if err == nil {
			continue
		}
		if !errors.Is(err, rumor.ErrShardUnreachable) {
			t.Fatalf("Push during outage: %v, want ErrShardUnreachable", err)
		}
		rejectedAt = ts
		break
	}
	if rejectedAt < 0 {
		t.Fatal("outage never surfaced as ErrShardUnreachable")
	}

	conns.mu.Lock()
	conns.v[1] = false
	conns.mu.Unlock()

	deadline := time.Now().Add(time.Minute)
	for ts := rejectedAt; ts < 1000; ts++ {
		pid := ts % 16
		load := (ts * 7) % 101
		if ts > rejectedAt {
			if err := ref.Push("CPU", ts, pid, load); err != nil {
				t.Fatal(err)
			}
		}
		for {
			err := sys.Push("CPU", ts, pid, load)
			if err == nil {
				break
			}
			if !errors.Is(err, rumor.ErrShardUnreachable) || time.Now().After(deadline) {
				t.Fatalf("Push after heal: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"hot", "warm"} {
		if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want {
			t.Fatalf("query %s: %d results, want %d", q, got, want)
		}
	}
	if got, want := sys.TotalResults(), ref.TotalResults(); got != want || got == 0 {
		t.Fatalf("total = %d, want %d (nonzero)", got, want)
	}
}

// Cross-count restore: a checkpoint taken at one shard count restores at
// another (wider and narrower), rehashing keyed state and rebuilding the
// routing table; counts keep matching an unsharded reference pushed with
// the same stream before and after the restore boundary.
func TestRestoreShardedCrossCount(t *testing.T) {
	for _, newShards := range []int{1, 2, 4} {
		ref := rumor.New()
		if err := ref.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
		if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		sys := buildShardedPerf(t, 3)
		pushPerf(t, ref.Push, 0, 250)
		pushPerf(t, sys.Push, 0, 250)
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		restored, err := rumor.RestoreSharded(bytes.NewReader(buf.Bytes()), rumor.ShardConfig{Shards: newShards, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.NumShards(); got != newShards {
			t.Fatalf("restored NumShards = %d, want %d", got, newShards)
		}
		pushPerf(t, ref.Push, 250, 500)
		pushPerf(t, restored.Push, 250, 500)
		if err := restored.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"hot", "warm"} {
			if got, want := restored.ResultCount(q), ref.ResultCount(q); got != want {
				t.Fatalf("shards 3->%d query %s: %d results, want %d", newShards, q, got, want)
			}
		}
		if got, want := restored.TotalResults(), ref.TotalResults(); got != want || got == 0 {
			t.Fatalf("shards 3->%d total = %d, want %d (nonzero)", newShards, got, want)
		}
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A ShardWorker serves a cluster as ServeShard does, and its Metrics,
// read while it serves, show the batches it applied and its boot ID.
func TestShardWorkerMetrics(t *testing.T) {
	lis := transport.NewPipeListener()
	sw := rumor.NewShardWorker()
	done := make(chan error, 1)
	go func() { done <- sw.Serve(lis) }()
	sys := rumor.NewSharded(rumor.ShardConfig{})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{
		Nodes:             []rumor.ClusterNode{{Dial: lis.Dial}},
		HeartbeatInterval: -1,
	}); err != nil {
		t.Fatal(err)
	}
	pushPerf(t, sys.Push, 0, 100)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	m := sw.Metrics()
	if n := m.Counters["worker_batches_applied_total"]; n <= 0 {
		t.Fatalf("worker_batches_applied_total = %d, want > 0", n)
	}
	if m.Gauges["worker_boot_id"] == 0 {
		t.Fatal("worker_boot_id = 0, want the worker's boot ID")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after the coordinator's shutdown: %v", err)
	}
}

// A stream declared after DialCluster reaches the workers with the first
// live add that scans it: the churn call carries each source's
// declaration, and the cluster counts what a single engine counts.
func TestDialClusterLateStream(t *testing.T) {
	nodes, _ := startPipeWorkers(t, 2)
	sys := rumor.NewSharded(rumor.ShardConfig{})
	ref := rumor.New()
	for _, s := range []*rumor.System{sys, ref} {
		if err := s.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes, HeartbeatInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := ref.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*rumor.System{sys, ref} {
		if err := s.DeclareStream("MEM", "", "pid", "used"); err != nil {
			t.Fatal(err)
		}
		if err := s.AddQueryLive("mem", rumor.Scan("MEM")); err != nil {
			t.Fatal(err)
		}
		for ts := int64(0); ts < 50; ts++ {
			if err := s.Push("MEM", ts, ts%7, ts); err != nil {
				t.Fatal(err)
			}
		}
		pushPerf(t, s.Push, 50, 150)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"mem", "hot", "warm"} {
		if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want || want == 0 {
			t.Fatalf("query %s: cluster %d, single engine %d", q, got, want)
		}
	}
}

// DialCluster keeps the batch size of the ShardConfig the System was made
// with: at 4 rows a batch, 64 pushed rows stage at least 16 batches; at the
// default of 256 each shard stages its rows as one batch at Drain.
func TestDialClusterKeepsBatchSize(t *testing.T) {
	withMetrics(t)
	for _, tc := range []struct {
		batch    int
		min, max int64
	}{{4, 16, 64}, {0, 2, 2}} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: tc.batch})
			if err := sys.ExecScript(perfScript); err != nil {
				t.Fatal(err)
			}
			nodes, _ := startPipeWorkers(t, 2)
			if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes, HeartbeatInterval: -1}); err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			pushPerf(t, sys.Push, 0, 64)
			if err := sys.Drain(); err != nil {
				t.Fatal(err)
			}
			m, err := sys.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if n := m.Counters["router_wal_batches_total"]; n < tc.min || n > tc.max {
				t.Fatalf("router_wal_batches_total = %d, want %d..%d", n, tc.min, tc.max)
			}
		})
	}
}

// DialCluster calls its nodes' Dial funcs one at a time, so they may share
// state, here two plain counters that overlapping calls would race on.
func TestDialClusterDialsOneAtATime(t *testing.T) {
	sys := rumor.NewSharded(rumor.ShardConfig{})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	nodes, _ := startPipeWorkers(t, 3)
	var inDial, most int
	for i := range nodes {
		dial := nodes[i].Dial
		nodes[i].Dial = func() (net.Conn, error) {
			inDial++
			most = max(most, inDial)
			time.Sleep(time.Millisecond) // a call long enough for another to start
			inDial--
			return dial()
		}
	}
	if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes, HeartbeatInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if most != 1 {
		t.Fatalf("%d Dial calls at once, want 1", most)
	}
}
