// Package obs is the engine's telemetry core: process-wide fixed-bucket
// histograms registered by name, snapshots that carry counters, gauges
// and histograms, plus a bounded lifecycle trace ring (trace.go) recording every
// structural event the runtime performs.
//
// Cost contract: collection is gated by one process-wide enable flag.
// While disabled, every instrument operation is a single atomic load and
// a predicted branch — nothing else. While enabled, instrument updates
// are atomic adds/stores and never allocate, so they are safe on batch
// paths; the per-tuple hot path goes further and keeps plain (unshared)
// fields that are folded into a Snapshot only at quiesce barriers (see
// engine.MetricsInto). Instrument pointers are obtained once at setup
// (Registry lookups take a lock) and cached by the instrumented code.
//
// Collection is pull-based: Snapshot is the exchange format — produced by
// Registry.Into and the per-layer *Into methods, merged across shards and
// worker processes (counters sum, gauges take the maximum, histograms add
// element-wise), and rendered by the public API (rumor.Metrics,
// rumor/obshttp).
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// enabled gates all metric collection. Off by default: the engine's
// allocation count is the same with telemetry off and on
// (TestObsOverheadAllocIdentical in internal/engine), and the off cost is
// one atomic load per instrument touch.
var enabled atomic.Bool

// Enable turns metric collection on or off process-wide.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is on. Instrumented code that
// must compute a value before recording it (clock reads, per-entry sums)
// checks this once and skips the computation when off; a histogram also
// checks it internally, so a plain Observe call needs no guard.
func Enabled() bool { return enabled.Load() }

// NumBuckets is the fixed bucket count of every Histogram: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i), with v <= 0 in bucket 0 and everything at or above
// 2^(NumBuckets-2) clamped into the last bucket. Power-of-two bounds keep
// Observe branch-free (one bits.Len64) and make histograms mergeable by
// element-wise addition.
const NumBuckets = 32

// BucketBound returns the inclusive upper bound of bucket i
// (2^i - 1); the last bucket is unbounded.
func BucketBound(i int) int64 {
	if i >= NumBuckets-1 {
		return -1 // +Inf
	}
	return int64(1)<<uint(i) - 1
}

// Histogram is a fixed-bucket latency/size histogram. All fields are
// atomics: concurrent observers and readers need no lock.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one value. No-op while disabled; never allocates.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
		if idx > NumBuckets-1 {
			idx = NumBuckets - 1
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[idx].Add(1)
}

// HistData is a histogram's point-in-time contents, the mergeable form
// carried inside snapshots.
type HistData struct {
	Count   int64
	Sum     int64
	Buckets [NumBuckets]int64
}

// Data snapshots the histogram. Buckets are read without a barrier
// against concurrent observers; each bucket is individually exact.
func (h *Histogram) Data() HistData {
	var d HistData
	d.Count = h.count.Load()
	d.Sum = h.sum.Load()
	for i := range h.buckets {
		d.Buckets[i] = h.buckets[i].Load()
	}
	return d
}

// add merges o into d element-wise.
func (d *HistData) add(o HistData) {
	d.Count += o.Count
	d.Sum += o.Sum
	for i := range d.Buckets {
		d.Buckets[i] += o.Buckets[i]
	}
}

// Registry holds named instruments. Lookup is get-or-create and takes a
// lock — callers resolve instruments once at setup and keep the pointer.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry: the coordinator-scope instruments
// (live churn latencies, …) live here, and the HTTP exposition reads it.
// Internal engine/shard/cluster layers do NOT write to it — they keep
// their own counters and fold them into snapshots at barriers — so a
// worker and a coordinator sharing one process (in-process pipe clusters)
// never double-count.
var Default = NewRegistry()

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Into folds the registry's current values into a snapshot.
func (r *Registry) Into(s *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, h := range r.hists {
		s.AddHist(name, h.Data())
	}
}

// Snapshot is a point-in-time metric capture, mergeable across shards and
// processes. Names may carry a literal Prometheus-style label suffix
// (`cluster_link_rtt_ns{shard="0"}`) — labeled series are distinct keys
// and survive merging unscathed, which is how per-shard health gauges
// coexist with summed cluster-wide counters.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]*HistData
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]*HistData),
	}
}

// AddCounter adds v to the named counter series.
func (s *Snapshot) AddCounter(name string, v int64) {
	s.Counters[name] += v
}

// SetGauge stores v for the named gauge series (last write wins).
func (s *Snapshot) SetGauge(name string, v int64) {
	s.Gauges[name] = v
}

// MaxGauge raises the named gauge series to v if v is larger.
func (s *Snapshot) MaxGauge(name string, v int64) {
	if cur, ok := s.Gauges[name]; !ok || v > cur {
		s.Gauges[name] = v
	}
}

// AddHist merges d into the named histogram series element-wise.
func (s *Snapshot) AddHist(name string, d HistData) {
	h, ok := s.Hists[name]
	if !ok {
		h = &HistData{}
		s.Hists[name] = h
	}
	h.add(d)
}

// Merge folds another snapshot into this one: counters sum, gauges take
// the maximum, histograms add element-wise. The coordinator uses this to
// fold per-worker snapshots (pulled over the stats RPC) into its own.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for name, v := range o.Counters {
		s.AddCounter(name, v)
	}
	for name, v := range o.Gauges {
		s.MaxGauge(name, v)
	}
	for name, h := range o.Hists {
		s.AddHist(name, *h)
	}
}
