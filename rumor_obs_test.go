package rumor_test

import (
	"maps"
	"net"
	"reflect"
	"strings"
	"testing"

	rumor "repro"
	"repro/internal/expr"
)

// startTCPWorkers serves n shard workers on loopback TCP listeners.
func startTCPWorkers(t *testing.T, n int) []rumor.ClusterNode {
	t.Helper()
	nodes := make([]rumor.ClusterNode, n)
	for i := 0; i < n; i++ {
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
	return nodes
}

// withMetrics enables metric collection for one test and restores the
// process-wide default afterwards (tests share the obs registry).
func withMetrics(t *testing.T) {
	t.Helper()
	prev := rumor.MetricsEnabled()
	rumor.EnableMetrics(true)
	t.Cleanup(func() { rumor.EnableMetrics(prev) })
}

// A local System's snapshot must carry the engine counters and agree with
// the public result counter.
func TestSystemMetricsLocal(t *testing.T) {
	withMetrics(t)
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if err := sys.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		pushPerf(t, sys.Push, 0, 300)
		k.settle(t, sys)
		m := k.metrics(t, sys)
		if got := m.Counters["engine_results_total"]; got != sys.TotalResults() {
			t.Fatalf("engine_results_total = %d, want TotalResults %d", got, sys.TotalResults())
		}
		if m.Counters["engine_tuples_delivered_total"] == 0 {
			t.Fatal("engine_tuples_delivered_total = 0 after 300 pushes")
		}
		if m.Counters["engine_op_processed_total"] == 0 {
			t.Fatal("engine_op_processed_total = 0 after 300 pushes")
		}
	})
}

// Live maintenance must show up in the registry histograms and the trace
// ring.
func TestLiveMaintenanceTelemetry(t *testing.T) {
	withMetrics(t)
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if err := sys.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		pushPerf(t, sys.Push, 0, 100)
		cold := rumor.Filter(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 95}, rumor.Scan("CPU"))
		if err := sys.AddQueryLive("cold", cold); err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveQuery("cold"); err != nil {
			t.Fatal(err)
		}
		m := k.metrics(t, sys)
		if h, ok := m.Hists["live_add_ns"]; !ok || h.Count == 0 {
			t.Fatalf("live_add_ns histogram missing or empty: %+v", h)
		}
		if h, ok := m.Hists["live_remove_ns"]; !ok || h.Count == 0 {
			t.Fatalf("live_remove_ns histogram missing or empty: %+v", h)
		}
		var sawAdd, sawRemove bool
		for _, ev := range rumor.TraceEvents() {
			if ev.Kind == "query_add" && strings.Contains(ev.Detail, "query=cold") {
				sawAdd = true
			}
			if ev.Kind == "query_remove" && strings.Contains(ev.Detail, "query=cold") {
				sawRemove = true
			}
		}
		if !sawAdd || !sawRemove {
			t.Fatalf("trace ring missing query_add/query_remove for cold (add=%v remove=%v)", sawAdd, sawRemove)
		}
	})
}

func checkShardedMetrics(t *testing.T, sys *rumor.ShardedSystem, shards int, remote bool) {
	t.Helper()
	m, err := sys.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counters["engine_results_total"]; got < sys.TotalResults() {
		t.Fatalf("merged engine_results_total = %d, want ≥ TotalResults %d", got, sys.TotalResults())
	}
	if m.Counters["engine_tuples_delivered_total"] == 0 {
		t.Fatal("merged engine_tuples_delivered_total = 0")
	}
	var tuples int64
	for i := 0; i < shards; i++ {
		tuples += m.Counters[`shard_tuples_total{shard="`+string(rune('0'+i))+`"}`]
	}
	if tuples == 0 {
		t.Fatal("per-shard shard_tuples_total series sum to 0")
	}
	if remote {
		if m.Counters["worker_batches_applied_total"] == 0 {
			t.Fatal("remote deployment reported no worker_batches_applied_total")
		}
		if m.Counters["transport_frames_sent_total"] == 0 {
			t.Fatal("remote deployment reported no transport frames")
		}
	}
}

// An in-process sharded system merges per-shard engine snapshots.
func TestShardedMetricsLocal(t *testing.T) {
	withMetrics(t)
	sys := buildShardedPerf(t, 2)
	defer sys.Close()
	pushPerf(t, sys.Push, 0, 400)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	checkShardedMetrics(t, sys, 2, false)
}

// A cluster deployment over pipe transports merges worker snapshots via
// the stats RPC.
func TestShardedMetricsPipeCluster(t *testing.T) {
	withMetrics(t)
	sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: 8})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	nodes, _ := startPipeWorkers(t, 2)
	if err := sys.DialCluster(rumor.Options{Channels: true}, rumor.ClusterConfig{
		Nodes:             nodes,
		HeartbeatInterval: -1,
	}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pushPerf(t, sys.Push, 0, 400)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	checkShardedMetrics(t, sys, 2, true)

	health := sys.WorkerHealth()
	if len(health) != 2 {
		t.Fatalf("WorkerHealth reported %d shards, want 2", len(health))
	}
	for _, h := range health {
		if !h.Remote {
			t.Fatalf("shard %d not marked remote", h.Shard)
		}
		if h.BootID == 0 {
			t.Fatalf("shard %d has no boot ID", h.Shard)
		}
		if h.Down || h.Dead {
			t.Fatalf("shard %d unexpectedly down/dead: %+v", h.Shard, h)
		}
	}
}

// The same merge must work over real TCP (acceptance: pipe AND TCP).
func TestShardedMetricsTCPCluster(t *testing.T) {
	withMetrics(t)
	sys := rumor.NewSharded(rumor.ShardConfig{BatchSize: 8})
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	nodes := startTCPWorkers(t, 2)
	if err := sys.DialCluster(rumor.Options{Channels: true}, rumor.ClusterConfig{
		Nodes:             nodes,
		HeartbeatInterval: -1,
	}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pushPerf(t, sys.Push, 0, 400)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	checkShardedMetrics(t, sys, 2, true)
}

// PlanInfo must surface the membership-width and multicast-table columns.
func TestPlanInfoTelemetryColumns(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		sys := k.new(t)
		if err := sys.ExecScript(perfScript); err != nil {
			t.Fatal(err)
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		info := sys.PlanInfo()
		if info.Channels > 0 && info.ChannelWords == 0 {
			t.Fatalf("plan has %d channels but 0 channel words", info.Channels)
		}
		if info.SpilledChannels != 0 {
			t.Fatalf("tiny plan reports %d spilled channels", info.SpilledChannels)
		}
	})
}

// Two Metrics calls return independent snapshots, on a System and on a
// ShardWorker: writing through the first (its counters, gauges and a
// histogram) leaves the second as it was returned.
func TestMetricsSnapshotsIndependent(t *testing.T) {
	withMetrics(t)
	check := func(t *testing.T, get func() *rumor.Metrics) {
		t.Helper()
		first, second := get(), get()
		want := cloneMetrics(second)
		for k := range first.Counters {
			first.Counters[k] += 1000
		}
		for k := range first.Gauges {
			first.Gauges[k] += 1000
		}
		for _, h := range first.Hists {
			h.Count += 1000
			h.Buckets[0] += 1000
			break
		}
		first.Counters["added_total"] = 1
		first.Gauges["added"] = 1
		first.Hists["added"] = &rumor.Histogram{Count: 1}
		if !reflect.DeepEqual(second, want) {
			t.Fatal("writing through one Metrics snapshot changed another")
		}
	}
	t.Run("system", func(t *testing.T) {
		sys := buildShardedPerf(t, 2)
		defer sys.Close()
		pushPerf(t, sys.Push, 0, 100)
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		check(t, func() *rumor.Metrics {
			m, err := sys.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Counters) == 0 || len(m.Gauges) == 0 || len(m.Hists) == 0 {
				t.Fatalf("snapshot has %d counters, %d gauges, %d histograms; want some of each",
					len(m.Counters), len(m.Gauges), len(m.Hists))
			}
			return m
		})
	})
	t.Run("worker", func(t *testing.T) {
		sw := rumor.NewShardWorker()
		check(t, func() *rumor.Metrics {
			m := sw.Metrics()
			if len(m.Counters) == 0 || len(m.Gauges) == 0 {
				t.Fatalf("worker snapshot has %d counters, %d gauges; want some of each", len(m.Counters), len(m.Gauges))
			}
			return m
		})
	})
}

// cloneMetrics deep-copies a snapshot.
func cloneMetrics(m *rumor.Metrics) *rumor.Metrics {
	c := &rumor.Metrics{Counters: maps.Clone(m.Counters), Gauges: maps.Clone(m.Gauges), Hists: map[string]*rumor.Histogram{}}
	for k, h := range m.Hists {
		hc := *h
		c.Hists[k] = &hc
	}
	return c
}
