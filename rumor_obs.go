package rumor

// Public telemetry surface over internal/obs: enable/disable the metric
// instruments, snapshot merged metrics from a running System (one shard,
// in-process shards, and cluster deployments all merge through the same
// path — remote workers answer a stats RPC at the same quiesce barrier
// every maintenance operation uses), and read the lifecycle trace ring.
//
// Cost contract: with metrics disabled (the default) every instrumented
// hot path pays at most one predicted atomic-load branch; the engine's
// per-tuple path pays nothing at all (it caches the enable flag once per
// drain). Enabling metrics keeps the per-tuple path allocation-free and
// samples operator busy time 1-in-1024, so steady-state throughput moves
// by low single-digit percent at most (TestObsOverheadAllocIdentical in
// internal/engine pins the allocation half).
// The lifecycle trace ring is always on: maintenance operations are rare
// and the ring is a fixed-size buffer.

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
)

// EnableMetrics turns metric collection on or off process-wide. Off by
// default; the trace ring (TraceEvents) records regardless.
func EnableMetrics(on bool) { obs.Enable(on) }

// MetricsEnabled reports whether metric collection is on.
func MetricsEnabled() bool { return obs.Enabled() }

// Metrics is a merged point-in-time snapshot of the telemetry registry:
// counters (monotone sums), gauges (point values; per-shard series carry
// a `{shard="i"}` suffix in the name), and histograms.
type Metrics struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]Histogram
}

// Histogram is a fixed-layout power-of-two histogram: Buckets[i] counts
// observations whose value has bit-length i, i.e. v ≤ HistogramBucketBound(i)
// and v > HistogramBucketBound(i-1). The layout is fixed so snapshots from
// different shards merge element-wise.
type Histogram struct {
	Count   int64
	Sum     int64
	Buckets []int64
}

// HistogramBucketBound returns the inclusive upper bound of bucket i
// (2^i - 1), or -1 for the final +Inf bucket.
func HistogramBucketBound(i int) int64 { return obs.BucketBound(i) }

// TraceEvent is one entry of the lifecycle trace ring: a maintenance or
// fault-handling operation with its wall-clock time (TimeUnixNano), kind
// (e.g. "delta_apply", "rebalance", "link_down"), key=value detail and
// duration (DurNS, 0 when instantaneous). Seq is the total number of
// events ever recorded when this one was written.
type TraceEvent = obs.Event

// TraceEvents returns the retained lifecycle events, oldest first. The
// ring holds the most recent 512 events; Seq exposes how many were ever
// recorded, so gaps from wraparound are detectable.
func TraceEvents() []TraceEvent { return obs.Trace.Events() }

// metricsFromSnapshot converts an internal snapshot to the public type.
func metricsFromSnapshot(s *obs.Snapshot) *Metrics {
	m := &Metrics{
		Counters: maps.Clone(s.Counters),
		Gauges:   maps.Clone(s.Gauges),
		Hists:    make(map[string]Histogram, len(s.Hists)),
	}
	for k, h := range s.Hists {
		m.Hists[k] = Histogram{Count: h.Count, Sum: h.Sum, Buckets: append([]int64(nil), h.Buckets[:]...)}
	}
	return m
}

// Metrics snapshots the system's telemetry, merged across every replica:
// engine counters per shard (tuples delivered, per-operator work,
// membership spills, window replays; remote replicas answer a stats RPC),
// router counters (multicast hits/drops, WAL volume), per-shard ingest and
// flush histograms and queue high-water gauges, cluster link health
// gauges, the process-wide registry (live-maintenance latency
// histograms), and the transport counters. It runs at the same batch-queue
// barrier as a live delta — concurrent pushers block briefly — and is
// serialized against maintenance operations. Dead shards are skipped; an
// unreachable worker fails the snapshot with ErrShardUnreachable. An
// unoptimized system reports only the process-wide registry and the
// transport counters.
func (s *System) Metrics() (*Metrics, error) {
	snap := obs.NewSnapshot()
	if s.sh != nil {
		s.churnMu.Lock()
		defer s.churnMu.Unlock()
		var err error
		if snap, err = s.sh.Metrics(); err != nil {
			return nil, err
		}
	}
	obs.Default.Into(snap)
	transport.MetricsInto(snap)
	return metricsFromSnapshot(snap), nil
}

// WorkerHealth reports one shard worker's link health as observed by the
// coordinator. For in-process shards only Shard and Dead are meaningful
// (Remote is false and the link fields stay zero).
type WorkerHealth = shard.WorkerHealth

// WorkerHealth reports per-shard link health. Cheap — no barrier, no
// RPCs; values come from the coordinator's own link bookkeeping. Returns
// nil before Optimize.
func (s *System) WorkerHealth() []WorkerHealth {
	if s.sh == nil {
		return nil
	}
	return s.sh.WorkerHealth()
}

// noteLiveAdd records one live query add in the maintenance histograms
// and the trace ring.
func noteLiveAdd(name string, d *core.Delta, dur time.Duration) {
	if obs.Enabled() {
		obs.Default.Histogram("live_add_ns").Observe(dur.Nanoseconds())
	}
	obs.RecordEvent(obs.EvQueryAdd, fmt.Sprintf("query=%s dirty=%d", name, len(d.Dirty)), dur)
}

// noteLiveRemove records one live query removal, plus a compaction event
// when the removal compacted tombstone-dominated channels.
func noteLiveRemove(name string, d *core.Delta, dur time.Duration) {
	if obs.Enabled() {
		obs.Default.Histogram("live_remove_ns").Observe(dur.Nanoseconds())
	}
	obs.RecordEvent(obs.EvQueryRemove, fmt.Sprintf("query=%s removed=%d", name, len(d.Removed)), dur)
	if len(d.Remaps) > 0 {
		obs.RecordEvent(obs.EvCompaction, fmt.Sprintf("query=%s remaps=%d", name, len(d.Remaps)), 0)
	}
}
