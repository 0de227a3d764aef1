// Package shard implements the sharded execution runtime: N independent
// engine replicas of one physical plan, fed through per-shard bounded
// batch queues by routing rules from the plan's partitionability analysis
// (core.AnalyzePartition).
//
// Each shard owns a full engine.Engine lowered from the shared (read-only)
// plan and a dedicated worker goroutine draining its queue. Ingestion
// appends routed rows to per-shard pending buffers as column runs; a
// buffer is handed to its worker as one batch (amortizing the
// cross-goroutine transfer), and the worker replays it in arrival order,
// one engine PushColumnsSel call per run.
//
// Results are merged with per-shard dense counters; queries whose output
// is replicated on every shard (see core.PartitionPlan.ReplicatedSinks)
// are counted on shard 0 only. An optional result callback is sequenced
// across shards by a mutex. Drain flushes every pending buffer and blocks
// until all workers are quiescent; Close additionally stops the workers.
//
// An engine with exactly one in-process replica runs inline: it has no
// worker goroutine, pending buffer, WAL or queue, and every Push* call
// replays into the replica under the router's lock, so results are out
// before the call returns. Drain is then a no-op, the result callback is
// the replica's own (no mutex), and nothing is partitioned: every source
// reaches the one replica. A recovery that leaves one in-process replica
// switches to the same inline mode.
//
// Rebalance, RecoverShard and Restore at another shard count move stored
// operator state by one placement rule (place, in rebalance.go). Each
// decides only which items leave their replica and how they travel; the
// rule decides where they land, per (state group, side), from the side's
// distribution under the new partition plan:
//
//   - keyed and multicast: the leaving items of every source merge in
//     timestamp order, and each key's items are spread round-robin over
//     its owners (core.PartitionPlan.Owners: one shard, or several for a
//     split hot key);
//   - replicated: one copy of the merged items goes to every destination;
//   - unpartitioned: a source's items go to the home its caller names
//     (restore: the old shard index modulo the new count; recovery: the
//     first survivor).
package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ErrShardDead reports that a shard's worker goroutine died (a crash caught
// by the worker's panic guard). The engine rejects ingestion and
// maintenance until RecoverShard absorbs the dead shard or the system is
// restored from a checkpoint.
var ErrShardDead = errors.New("shard: worker dead; RecoverShard or restore from a checkpoint")

// errClosed rejects every use of an engine after Close (or poisoning).
var errClosed = errors.New("shard: engine closed")

// Config sizes the sharded runtime.
type Config struct {
	// Shards is the number of engine replicas (default 1). One replica
	// runs inline, in the pusher's goroutine; more are fed by worker
	// goroutines.
	Shards int
	// BatchSize is the number of tuples accumulated per shard before the
	// buffer is handed to the shard's worker goroutine (default 256).
	// Larger batches amortize the cross-goroutine transfer at the cost of
	// result latency.
	BatchSize int
	// QueueDepth bounds the batches buffered per shard; a full queue
	// applies backpressure to pushers (default 8).
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	return c
}

// WAL entries are cluster.Entry values, each a run of same-source rows
// carried column-major, so the ingest queues, WAL, worker loop and wire
// pay per run: one queue element and WAL record slot per shard for a
// PushColumns batch, and for a stretch of same-source Push rows, which
// are copied into runs their batch buffer owns (see batch). A PushColumns
// run shares the caller's slices, which the shard engine owns once
// routed; every shard's run selects its own rows of them.

// batch is a shard's buffer of WAL entries, pending and then staged. rows
// counts the rows its entries stand for: a buffer fills by rows.
//
// The rows of Push go into runs the buffer builds. While the buffer is
// pending, such a run's entry has a nil Run and its rows sit row-major in
// vals, each its timestamp and then its values: appending a row is one
// copy into memory only the router touches. seal transposes them into
// the runs' columns, carved from cols, before the buffer is staged. The
// arrays stay with the buffer when it is recycled, so a buffer in steady
// state allocates nothing.
type batch struct {
	entries []cluster.Entry
	rows    int
	spans   []span        // the router's runs, in entry order
	runs    []cluster.Run // their runs, filled in by seal
	vals    []int64
	cols    []int64
	hdrs    [][]int64 // the runs' column headers
}

// span locates the rows of one router run in vals: n rows of w words
// (timestamp and values) from off.
type span struct{ off, n, w int }

// seal transposes the router's rows into the columns of their runs and
// points the runs' entries at them. A run's column headers are cut from
// hdrs; one cut before hdrs grows keeps the array it was cut from.
func (b *batch) seal() {
	b.runs = slices.Grow(b.runs[:0], len(b.spans))[:len(b.spans)]
	b.cols = slices.Grow(b.cols[:0], len(b.vals))[:len(b.vals)]
	b.hdrs = b.hdrs[:0]
	k := 0
	for i := range b.entries {
		if b.entries[i].Run != nil {
			continue
		}
		sp, run := b.spans[k], &b.runs[k]
		k++
		rows, cols := b.vals[sp.off:sp.off+sp.n*sp.w], b.cols[sp.off:sp.off+sp.n*sp.w]
		for r := range sp.n {
			for c, v := range rows[r*sp.w : (r+1)*sp.w] {
				cols[c*sp.n+r] = v
			}
		}
		h := len(b.hdrs)
		for lo := sp.n; lo < len(cols); lo += sp.n {
			b.hdrs = append(b.hdrs, cols[lo:lo+sp.n:lo+sp.n])
		}
		run.TS, run.Cols = cols[:sp.n:sp.n], b.hdrs[h:len(b.hdrs):len(b.hdrs)]
		b.entries[i].Run = run
	}
}

// reset empties the buffer for reuse, dropping its references to the
// arrays of PushColumns runs.
func (b *batch) reset() {
	clear(b.entries)
	b.entries, b.spans, b.vals = b.entries[:0], b.spans[:0], b.vals[:0]
	b.rows = 0
}

// msg is one queue element: a batch of entries, or a drain marker.
type msg struct {
	entries []cluster.Entry
	seq     int64        // WAL sequence number of the batch
	ack     chan<- error // drain marker when non-nil
}

// walRec is one batch retained in a shard's write-ahead log: the router
// keeps every flushed batch until the worker acknowledges it (publishes a
// completed sequence at or past it), so a crashed worker's unacknowledged
// suffix can be replayed into its engine during recovery. The log is
// bounded by the queue depth: acknowledged prefixes are pruned (and their
// buffers recycled, runs and all) on the next flush.
type walRec struct {
	seq int64
	b   *batch
}

// worker is one shard: an engine replica (in-process or a remote worker
// process behind a cluster client) and the goroutine draining its queue.
type worker struct {
	idx    int
	rep    replica
	ch     chan msg
	done   chan struct{}
	tuples atomic.Int64 // entries replayed (written by the worker only)
	busyNS atomic.Int64 // time spent replaying (written by the worker only)
	err    error        // first replay error (written by the worker only)
	// tuplesBase is tuples at the last counter rebase, so Imbalance reads
	// the load since then (written and read under the router's mu).
	tuplesBase int64

	// flush / ingest are per-worker telemetry histograms (batch flush
	// latency in ns; entries per replayed batch). Self-gated atomics —
	// observed by the worker goroutine, read at barriers without extra
	// synchronization. queueHW is the batch-queue depth high-water,
	// written and read under the router's mu.
	flush   obs.Histogram
	ingest  obs.Histogram
	queueHW int

	// completed is the highest WAL sequence fully replayed, published
	// after each batch. Everything at or below it is prunable; everything
	// above it is replayed from the WAL if the worker dies.
	completed atomic.Int64
	// killed records that the goroutine exited via a recovered panic
	// (fault injection or a genuine bug) or a fatal replica error (a lost
	// remote worker) rather than channel close.
	killed atomic.Bool
	// closeOnce guards close(ch) so Close, engine poisoning, and recovery
	// shutdown never double-close the queue.
	closeOnce sync.Once
}

// close shuts the worker's queue exactly once.
func (w *worker) close() { w.closeOnce.Do(func() { close(w.ch) }) }

// srcRoute is the precomputed routing state of one source stream.
type srcRoute struct {
	id    int32
	arity int // declared width of every row of the source
	mode  core.PartitionMode
	attr  int
	// Multicast: shard bitmask per probed value, plus the mask every
	// tuple gets. Values absent from the table reach only alwaysMask
	// (possibly no shard at all — dropped at the router).
	table      map[int64]uint64
	alwaysMask uint64
}

// Engine executes one physical plan across hash-partitioned engine
// replicas.
type Engine struct {
	plan *core.Physical
	part *core.PartitionPlan
	cfg  Config

	workers  []*worker
	srcNames []string // source id → name
	srcs     map[string]srcRoute

	// inline is the replica engine of an engine with exactly one
	// in-process replica, nil otherwise (see the package doc).
	inline *engine.Engine

	mu      sync.Mutex // guards pending, free, rr, closed, wal, walSeq, dead
	pending []*batch
	free    []*batch // recycled batch buffers
	rr      uint64
	closed  bool

	// wal holds, per shard, the flushed batches not yet acknowledged by
	// the worker (seq > worker.completed); walSeq is the last assigned
	// sequence; sent is the highest sequence handed to the worker's queue
	// (sent < walSeq when ingest-path delivery aborted on an unreachable
	// replica — the staged records are redelivered by the next flush).
	// dead marks shards whose worker was observed dead (its done channel
	// closed while the router tried to reach it); numDead counts them.
	wal     [][]walRec
	walSeq  []int64
	sent    []int64
	dead    []bool
	numDead int

	// numUnreach counts remote replicas currently unreachable (transient
	// outages). It is an atomic, not mu-guarded state: the OnDown callback
	// that maintains it can fire from a worker goroutine's replayBatch
	// retry while the router holds mu blocked on that worker's full queue
	// — taking mu there would deadlock.
	numUnreach atomic.Int64

	// onResult, when set, receives every attributed result; calls are
	// sequenced across shards by resMu. Set via OnResult or ApplyDelta, at
	// a barrier.
	onResult func(queryID int, t *stream.Tuple)
	resMu    sync.Mutex

	maxQuery int

	// frozen holds the merged final counts of queries removed by a live
	// delta, captured at the delta barrier under the partition plan they
	// ran with (a replicated sink must not be re-summed across shards
	// after its entry leaves ReplicatedSinks).
	frozen map[int]int64
	// base holds, per query, the merged count accumulated under earlier
	// routing epochs: a rebalance rebases the replica counters to zero
	// (engine.ResetCounts) after folding them in here, so a query whose
	// sink flips between partitioned and replicated across epochs is never
	// double- or under-counted.
	base map[int]int64
	// statsMu guards part, maxQuery, frozen, and base — and the local
	// replicas' result counters while a delta splice rebuilds them —
	// against readers (ResultCount/TotalResults) running concurrently with
	// a live delta.
	// Per-worker counters are NOT guarded: their values are stable (and
	// meaningful) only after Drain, as documented.
	statsMu sync.RWMutex

	// Router telemetry, mu-guarded plain counters gated on obs.Enabled()
	// at the recording sites; folded into a snapshot by Metrics.
	mcHits     int64 // multicast tuples matched to ≥1 shard
	mcDrops    int64 // multicast tuples no shard wanted (dropped at router)
	walBatches int64 // batches staged into per-shard WALs
	walEntries int64 // rows staged
	walBytes   int64 // approximate bytes staged (row header + values)
}

// New builds a sharded engine over the plan. The partition plan must come
// from core.AnalyzePartition on the same (already optimized) plan; pass
// nil to run the analysis here, or, at one shard, to route nothing. The
// plan must not be mutated afterwards.
func New(p *core.Physical, part *core.PartitionPlan, cfg Config) (*Engine, error) {
	return build(p, part, cfg, nil)
}

// build assembles the runtime; with nodes nil every replica is an
// in-process engine, otherwise replica i is the remote worker behind
// nodes[i] (see NewCluster).
func build(p *core.Physical, part *core.PartitionPlan, cfg Config, nodes []cluster.Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	inline := nodes == nil && cfg.Shards == 1
	switch {
	case part == nil && inline:
		part = &core.PartitionPlan{}
	case part == nil:
		part = core.AnalyzePartition(p)
	}
	e := &Engine{
		plan:    p,
		part:    part,
		cfg:     cfg,
		srcs:    make(map[string]srcRoute),
		pending: make([]*batch, cfg.Shards),
		base:    make(map[int]int64),
		wal:     make([][]walRec, cfg.Shards),
		walSeq:  make([]int64, cfg.Shards),
		sent:    make([]int64, cfg.Shards),
		dead:    make([]bool, cfg.Shards),
	}
	// Source routes (and the source-name table the handshake ships) must
	// exist before any replica is built or dialled.
	e.rebuildSourceRoutes(part)
	for _, q := range p.Queries {
		if q.ID > e.maxQuery {
			e.maxQuery = q.ID
		}
	}
	var planBytes []byte
	if nodes != nil {
		pb, err := wire.EncodePlanBytes(p.Snapshot())
		if err != nil {
			return nil, fmt.Errorf("shard: encoding plan snapshot: %w", err)
		}
		planBytes = pb
	}
	fail := func(err error) (*Engine, error) {
		for _, w := range e.workers {
			w.rep.close(false)
		}
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		var rep replica
		if nodes == nil {
			eng, err := engine.New(p)
			if err != nil {
				return fail(fmt.Errorf("shard %d: %w", i, err))
			}
			rep = &localReplica{e: e, idx: i, eng: eng}
		} else {
			nc := nodes[i]
			nc.ShardIdx = i
			nc.ShardCount = cfg.Shards
			nc.PlanBytes = planBytes
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
			cli, err := cluster.Dial(nc, e.srcNames)
			if err != nil {
				return fail(fmt.Errorf("shard %d: %w", i, err))
			}
			rr.cli = cli
			rep = rr
		}
		w := &worker{idx: i, rep: rep}
		e.workers = append(e.workers, w)
		if inline {
			e.inline = rep.localEngine()
			continue
		}
		w.ch = make(chan msg, cfg.QueueDepth)
		w.done = make(chan struct{})
		e.pending[i] = e.takeBatch()
	}
	if e.inline == nil {
		for _, w := range e.workers {
			go w.run()
		}
	}
	return e, nil
}

// rebuildSourceRoutes (re)derives the per-source routing state from a
// partition plan. Existing sources keep their dense source IDs (pending
// entries reference them); sources new to the plan are appended in
// sorted-name order — deterministic so a source table projected ahead of
// the rebuild (projectedSrcNamesLocked, shipped to remote workers inside
// the delta RPC) assigns the same IDs.
func (e *Engine) rebuildSourceRoutes(part *core.PartitionPlan) {
	for _, name := range e.catalogSourceNames() {
		route, ok := part.Routes[name]
		if !ok {
			route = core.SourceRoute{Mode: core.PartitionBroadcast}
		}
		id := int32(len(e.srcNames))
		if old, exists := e.srcs[name]; exists {
			id = old.id
		} else {
			e.srcNames = append(e.srcNames, name)
		}
		sr := srcRoute{id: id, arity: e.plan.Catalog[name].Schema.Arity(), mode: route.Mode, attr: route.Attr}
		if route.Mode == core.PartitionMulticast {
			if e.cfg.Shards > 64 {
				// Bitmask routing covers 64 shards; beyond that fall back
				// to broadcasting the probe stream.
				sr.mode = core.PartitionBroadcast
			} else {
				sr.table = make(map[int64]uint64, len(route.Table))
				for v, partners := range route.Table {
					sr.table[v] = partnerMask(partners, e.cfg.Shards, part)
				}
				sr.alwaysMask = partnerMask(route.Always, e.cfg.Shards, part)
			}
		}
		e.srcs[name] = sr
	}
}

// catalogSourceNames lists the plan's source streams in sorted order.
func (e *Engine) catalogSourceNames() []string {
	names := make([]string, 0, len(e.plan.Catalog))
	for name := range e.plan.Catalog {
		if e.plan.SourceStream(name) == nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// projectedSrcNamesLocked computes the source-name table as it will stand
// after the next rebuildSourceRoutes against the current (already
// mutated) plan: the existing table plus any new sources, appended in the
// same sorted order the rebuild uses. Called with mu held.
func (e *Engine) projectedSrcNamesLocked() []string {
	names := append([]string(nil), e.srcNames...)
	for _, name := range e.catalogSourceNames() {
		if _, ok := e.srcs[name]; !ok {
			names = append(names, name)
		}
	}
	return names
}

// wireCallbacks installs per-engine result hooks when a user callback is
// registered. Without one, the engines count results internally (their
// counters are read only after Drain establishes quiescence) and keep
// their allocation-free delivery path. An inline replica calls the user
// callback directly: its pushes are already serialized by mu. Called at a
// barrier with mu held.
func (e *Engine) wireCallbacks() {
	fn := e.onResult
	for _, w := range e.workers {
		eng := w.rep.localEngine()
		switch {
		case eng == nil:
			continue // remote replica: results are counted worker-side
		case fn == nil || eng == e.inline:
			eng.OnResult = fn
			continue
		}
		idx := w.idx
		eng.OnResult = func(qid int, t *stream.Tuple) {
			if idx != 0 && e.part.ReplicatedSinks[qid] {
				return // replicated sink: attributed on shard 0 only
			}
			e.resMu.Lock()
			fn(qid, t)
			e.resMu.Unlock()
		}
	}
}

// OnResult registers a result callback, sequenced across shards. It may be
// called at any time, though not from inside a callback: the replicas are
// rewired at a batch-queue barrier, so a result goes either to the old
// callback or to the new one. The tuple is the replica engine's and is
// recycled after the call: vals is valid until the callback returns; copy
// it to keep it. Remote replicas (NewCluster) do not deliver callbacks —
// their results are counted worker-side and merged into
// ResultCount/TotalResults at drain barriers.
func (e *Engine) OnResult(fn func(queryID int, t *stream.Tuple)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		// A sticky replay error does not stop the swap; it surfaces on
		// Drain/Close.
		_ = e.quiesceLiveLocked()
	}
	e.onResult = fn
	e.wireCallbacks()
}

// run is the worker loop: replay batches, acknowledge drain markers. A
// panic (an injected fault, or a genuine bug) is caught at the top: the
// engine replica is left intact at the last fully-completed batch — kill
// fault points fire at batch boundaries, before any entry of the next
// batch reaches the engine — and the closed done channel is the death
// signal the router's selects observe. Batches are NOT pooled here: the
// router's WAL owns them until the published completed sequence passes
// them (pruneWAL recycles acknowledged prefixes).
func (w *worker) run() {
	defer close(w.done)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, injected := r.(faultpoint.Crash); !injected && w.err == nil {
			w.err = fmt.Errorf("shard %d: worker panic: %v", w.idx, r)
		}
		w.killed.Store(true)
	}()
	for m := range w.ch {
		if m.ack != nil {
			faultpoint.Maybe("shard.drain.ack")
			m.ack <- w.err
			continue
		}
		faultpoint.Maybe("shard.flush.replay")
		start := time.Now()
		err := w.rep.replayBatch(m.seq, m.entries)
		elapsed := time.Since(start).Nanoseconds()
		w.busyNS.Add(elapsed)
		w.flush.Observe(elapsed)
		w.ingest.Observe(cluster.BatchRows(m.entries))
		if err != nil && errors.Is(err, ErrShardDead) {
			// Fatal replica loss (a remote worker declared lost): exit
			// without completing the batch — it stays in the WAL, and the
			// closed done channel hands the shard to the dead-shard
			// machinery, exactly like a local crash.
			if w.err == nil {
				w.err = err
			}
			w.killed.Store(true)
			return
		}
		if err != nil && w.err == nil {
			w.err = err // sticky application replay error
		}
		w.tuples.Add(cluster.BatchRows(m.entries))
		w.completed.Store(m.seq)
	}
}

// takeBatch returns an empty batch buffer, a recycled one when there is
// one. There are never more buffers than shards times the pending buffer
// and the WAL records of each. Called with mu held.
func (e *Engine) takeBatch() *batch {
	n := len(e.free)
	if n == 0 {
		return new(batch)
	}
	b := e.free[n-1]
	e.free = e.free[:n-1]
	return b
}

// recycleBatch empties a WAL record's buffer and keeps it for reuse, with
// the runs the router built in it. Called with mu held.
func (e *Engine) recycleBatch(rec walRec) {
	rec.b.reset()
	e.free = append(e.free, rec.b)
}

// partnerMask folds partner-key values into a shard bitmask, honouring the
// plan's key-placement overlay: a moved (or split) partner key contributes
// every shard that owns a slice of its instances.
func partnerMask(partners []int64, n int, part *core.PartitionPlan) uint64 {
	var m uint64
	for _, p := range partners {
		for _, o := range part.Owners(p, n) {
			m |= 1 << uint(o)
		}
	}
	return m
}

// shardOf picks the shard for one tuple with routing key v under a hash or
// round-robin route. Hash routes honour the key-placement overlay of the
// partition plan: a moved key goes to its explicit owner, a split key
// round-robins across its owners.
func (e *Engine) shardOf(sr srcRoute, v int64) int {
	n := len(e.workers)
	if n == 1 {
		return 0
	}
	switch sr.mode {
	case core.PartitionHash:
		if owners := e.part.Moved(v); owners != nil {
			if len(owners) == 1 {
				return owners[0]
			}
			e.rr++
			return owners[e.rr%uint64(len(owners))]
		}
		return core.ShardOfKey(v, n)
	default: // round-robin
		e.rr++
		return int(e.rr % uint64(n))
	}
}

// appendRun adds a PushColumns run to a shard's pending buffer. Called
// with mu held.
func (e *Engine) appendRun(shard int, src int32, run *cluster.Run) {
	b := e.pending[shard]
	b.entries = append(b.entries, cluster.Entry{Src: src, Run: run})
	e.added(shard, run.Rows())
}

// appendRow copies one row into the shard's open run of its source: the
// buffer's last entry, when the router built it for that source; else a
// run it opens. Called with mu held.
func (e *Engine) appendRow(shard int, src int32, ts int64, vals []int64) {
	b := e.pending[shard]
	if n := len(b.entries); n == 0 || b.entries[n-1].Run != nil || b.entries[n-1].Src != src {
		b.entries = append(b.entries, cluster.Entry{Src: src})
		b.spans = append(b.spans, span{off: len(b.vals), w: 1 + len(vals)})
	}
	b.vals = append(append(b.vals, ts), vals...)
	b.spans[len(b.spans)-1].n++
	e.added(shard, 1)
}

// added counts rows into a shard's pending buffer, handing the buffer to
// the worker when its row count fills a batch. Called with mu held; the
// queue send may block for backpressure.
func (e *Engine) added(shard, rows int) {
	e.pending[shard].rows += rows
	if e.pending[shard].rows >= e.cfg.BatchSize {
		e.stageShard(shard)
		e.deliverWAL(shard, true)
	}
}

// flushShard stages a shard's pending buffer and delivers every staged
// record, blocking through backpressure and outages alike (barrier
// semantics — Drain, quiesce, Close). Called with mu held.
func (e *Engine) flushShard(shard int) {
	e.stageShard(shard)
	e.deliverWAL(shard, false)
}

// stageShard moves a non-empty pending buffer into the shard's WAL: the
// batch stays replayable until the worker acknowledges it, so a Push
// that returned nil is never lost to a crash. Called with mu held.
func (e *Engine) stageShard(shard int) {
	b := e.pending[shard]
	if len(b.entries) == 0 {
		return
	}
	b.seal()
	e.pending[shard] = e.takeBatch()
	e.pruneWAL(shard)
	e.walSeq[shard]++
	e.wal[shard] = append(e.wal[shard], walRec{seq: e.walSeq[shard], b: b})
	if obs.Enabled() {
		e.walBatches++
		e.walEntries += int64(b.rows)
		for _, en := range b.entries {
			// row header (src, ts) + value words; close enough to track
			// WAL growth and replay cost without serializing anything.
			e.walBytes += int64(en.Run.Rows()) * (16 + 8*int64(len(en.Run.Cols)))
		}
	}
}

// deliverWAL hands the shard's staged-but-unsent WAL records to the
// worker in sequence order. On the ingest path (Push, ingest true) a
// replica that reports unreachable aborts delivery — the records stay
// staged behind the sent cursor for the next flush to redeliver, and the
// caller's Push returns promptly instead of blocking up to FailTimeout
// behind the worker's retry loop (the next Push fails fast at the
// numUnreach check). Barriers (ingest false) deliver unconditionally,
// blocking through an outage exactly as they block behind a slow replay.
// A worker found dead (done closed while the router blocked on its
// queue) is marked; its records stay in the WAL for recovery. Called
// with mu held.
//
//rumor:holdslock
func (e *Engine) deliverWAL(shard int, ingest bool) {
	if e.dead[shard] {
		return // unacknowledged; replayed by RecoverShard
	}
	w := e.workers[shard]
	var downCh <-chan struct{}
	if ingest {
		downCh = w.rep.downChan() // nil for local replicas: never fires
	}
	for _, rec := range e.wal[shard] {
		if rec.seq <= e.sent[shard] {
			continue
		}
		select {
		case w.ch <- msg{entries: rec.b.entries, seq: rec.seq}:
		case <-w.done:
			e.markDeadLocked(shard)
			return
		case <-downCh:
			return // unreachable: leave staged, fail fast upstream
		}
		e.sent[shard] = rec.seq
		if obs.Enabled() {
			if d := len(w.ch); d > w.queueHW {
				w.queueHW = d
			}
		}
	}
}

// pruneWAL recycles the acknowledged prefix of a shard's WAL. The worker
// publishes completed after its last touch of a batch, so once a record's
// seq is covered the router owns the buffer again. Called with mu held.
func (e *Engine) pruneWAL(shard int) {
	wal := e.wal[shard]
	if len(wal) == 0 {
		return
	}
	done := e.workers[shard].completed.Load()
	i := 0
	for i < len(wal) && wal[i].seq <= done {
		e.recycleBatch(wal[i])
		i++
	}
	if i > 0 {
		n := copy(wal, wal[i:])
		clear(wal[n:])
		e.wal[shard] = wal[:n]
	}
}

// markDeadLocked records a worker observed dead. Called with mu held.
func (e *Engine) markDeadLocked(shard int) {
	if !e.dead[shard] {
		e.dead[shard] = true
		e.numDead++
	}
}

// deadErrLocked builds the typed dead-shard error. Called with mu held.
func (e *Engine) deadErrLocked() error {
	for i, d := range e.dead {
		if d {
			return fmt.Errorf("%w (shard %d)", ErrShardDead, i)
		}
	}
	return ErrShardDead
}

// unreachableErr returns the typed fail-fast error when a remote replica
// is in a transient outage, nil when every replica is reachable (the
// unreach flags may clear between the counter read and this scan — then
// ingestion simply proceeds).
func (e *Engine) unreachableErr() error {
	for i, w := range e.workers {
		if w.rep.unreachable() {
			return fmt.Errorf("%w (shard %d)", ErrShardUnreachable, i)
		}
	}
	return nil
}

// noRows is the width admitLocked checks for a call that carries no rows.
const noRows = -1

// admitLocked resolves the route of source and checks that a call may
// ingest into it: the engine is open, no shard is dead, no remote replica
// is unreachable, and the rows of the call, all of the given width, have
// the source's declared arity (engine.ErrArity otherwise). Called with mu
// held: live deltas rebuild the source routing tables at the ApplyDelta
// barrier. (A map lookup is plenty: the routing path is dominated by the
// ingestion mutex.)
func (e *Engine) admitLocked(source string, width int) (srcRoute, error) {
	sr, ok := e.srcs[source]
	if !ok {
		return sr, fmt.Errorf("shard: source %q not in plan", source)
	}
	if e.closed {
		return sr, errClosed
	}
	if e.numDead > 0 {
		return sr, e.deadErrLocked()
	}
	if e.numUnreach.Load() > 0 {
		if err := e.unreachableErr(); err != nil {
			return sr, err
		}
	}
	if width != noRows && width != sr.arity {
		return sr, fmt.Errorf("shard: source %q: %w: %d values, schema has %d", source, engine.ErrArity, width, sr.arity)
	}
	return sr, nil
}

// Push injects one tuple into the named source stream. The engine takes
// ownership of vals. Tuples must be pushed in non-decreasing timestamp
// order for windowed operators to expire correctly; concurrent pushers
// are safe but interleave at the routing step. A sharded engine copies the
// row into its destination shards' runs (see routeRow).
//
// Failure contract: engine.ErrArity (errors.Is) for a row whose width is
// not the source's declared arity, ErrShardDead once any shard's replica
// is lost, ErrShardUnreachable while a remote replica is in a transient
// outage (fail fast instead of blocking behind the outage's backoff); a
// call that fails ingests nothing, and nothing accepted before it is lost
// — it is retained in the per-shard WAL.
func (e *Engine) Push(source string, ts int64, vals []int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if eng := e.inline; eng != nil {
		if e.closed {
			return errClosed
		}
		err := eng.Push(source, &stream.Tuple{TS: ts, Vals: vals})
		e.countInline(1, err)
		return err
	}
	sr, err := e.admitLocked(source, len(vals))
	if err != nil {
		return err
	}
	e.routeRow(sr, ts, vals)
	return nil
}

// countInline counts the rows of an inline push the replica engine
// accepted. The engine checks what the router's admission check would (an
// unknown source or a row of the wrong width fails the call and ingests
// nothing), so inline pushes leave that check to the engine. Pushes are
// serialized by mu, so the counter needs no atomic add. Called with mu
// held.
func (e *Engine) countInline(rows int, err error) {
	if err == nil {
		n := &e.workers[0].tuples
		n.Store(n.Load() + int64(rows))
	}
}

// PushShared injects one channel tuple whose membership t.Member names
// several sharable sources of one channel edge. Only an inline engine
// offers it: the router holds no membership to route a shared tuple by.
// The failure contract of Push applies.
func (e *Engine) PushShared(source string, t *stream.Tuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.inline == nil:
		return fmt.Errorf("shard: PushShared needs a single in-process shard, have %d shards", len(e.workers))
	case e.closed:
		return errClosed
	}
	err := e.inline.Push(source, t)
	e.countInline(1, err)
	return err
}

// routeRow copies one row into the open run of its source on each of its
// shards: every shard for a broadcast source, the shards its key's
// multicast mask names, or the one shardOf picks. Called with mu held.
func (e *Engine) routeRow(sr srcRoute, ts int64, vals []int64) {
	if sr.mode == core.PartitionBroadcast {
		for i := range e.workers {
			e.appendRow(i, sr.id, ts, vals)
		}
		return
	}
	var v int64
	if sr.attr < len(vals) {
		v = vals[sr.attr]
	}
	if sr.mode != core.PartitionMulticast {
		e.appendRow(e.shardOf(sr, v), sr.id, ts, vals)
		return
	}
	for mask := e.multicastMask(sr, v); mask != 0; mask &= mask - 1 {
		e.appendRow(bits.TrailingZeros64(mask), sr.id, ts, vals)
	}
}

// multicastMask returns the shards a multicast tuple with routing key v
// goes to — content-based routing: only the shards whose instances can
// pair with the tuple; a tuple no operator constant matches is dropped at
// the router — and counts it as a router hit or drop.
func (e *Engine) multicastMask(sr srcRoute, v int64) uint64 {
	mask := sr.alwaysMask | sr.table[v]
	if obs.Enabled() {
		if mask == 0 {
			e.mcDrops++
		} else {
			e.mcHits++
		}
	}
	return mask
}

// PushColumns injects a batch given column-major — ts[i] pairs with
// cols[a][i] — keeping it columnar end-to-end: every destination shard
// gets one run entry sharing ts and cols, a partitioned source's run
// selecting that shard's rows by bitmap, and the runs travel through the
// WAL and worker queues as single entries until each replica engine feeds
// its selected rows to its vectorized path. The engine takes ownership of
// ts and cols: they stay referenced until every shard's worker has
// replayed its run and its WAL has pruned it. An inline engine keeps no
// reference once the call returns. The failure contract of Push applies.
func (e *Engine) PushColumns(source string, ts []int64, cols [][]int64) error {
	for a, col := range cols {
		if len(col) != len(ts) {
			return fmt.Errorf("shard: source %q: %w: %d timestamps, %d rows in column %d", source, engine.ErrArity, len(ts), len(col), a)
		}
	}
	width := len(cols)
	if len(ts) == 0 {
		width = noRows
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if eng := e.inline; eng != nil {
		if e.closed {
			return errClosed
		}
		err := eng.PushColumns(source, ts, cols)
		e.countInline(len(ts), err)
		return err
	}
	sr, err := e.admitLocked(source, width)
	if err != nil || len(ts) == 0 {
		return err
	}
	e.routeColumns(sr, ts, cols)
	return nil
}

// routeColumns appends a column-major batch to its shard(s). Called with
// mu held.
func (e *Engine) routeColumns(sr srcRoute, ts []int64, cols [][]int64) {
	if sr.mode == core.PartitionBroadcast || len(e.workers) == 1 {
		// Every shard shares one run: rows are immutable throughout the
		// engines, exactly like broadcast value slices.
		run := &cluster.Run{TS: ts, Cols: cols}
		for i := range e.workers {
			e.appendRun(i, sr.id, run)
		}
		return
	}
	// Every shard's run shares ts and cols and selects its rows by bitmap;
	// the bitmaps are carved from one array. One pass decides each row's
	// destinations (shardOf advances the round-robin state, so it runs
	// exactly once per row) and sets the row's bit in each. A hash or
	// round-robin row has one destination shard; a multicast row has a
	// mask of them (multicast routes exist only up to 64 shards, see
	// rebuildSourceRoutes).
	words := (len(ts) + 63) >> 6
	sels := make([]uint64, len(e.workers)*words)
	var key []int64
	if sr.attr < len(cols) {
		key = cols[sr.attr]
	}
	for row := range ts {
		var v int64
		if key != nil {
			v = key[row]
		}
		bit := uint64(1) << uint(row&63)
		if sr.mode != core.PartitionMulticast {
			sels[e.shardOf(sr, v)*words+row>>6] |= bit
			continue
		}
		for mask := e.multicastMask(sr, v); mask != 0; mask &= mask - 1 {
			sels[bits.TrailingZeros64(mask)*words+row>>6] |= bit
		}
	}
	for i := range e.workers {
		sel := sels[i*words : (i+1)*words : (i+1)*words]
		if slices.ContainsFunc(sel, func(w uint64) bool { return w != 0 }) {
			e.appendRun(i, sr.id, &cluster.Run{TS: ts, Cols: cols, Sel: sel})
		}
	}
}

// BlocksProcessed sums the columnar blocks delivered by the in-process
// replica engines (see engine.Engine.BlocksProcessed). Meaningful after a
// Drain, like the per-worker counters; remote replicas report 0 here.
func (e *Engine) BlocksProcessed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, w := range e.workers {
		if eng := w.rep.localEngine(); eng != nil {
			n += eng.BlocksProcessed()
		}
	}
	return n
}

// Drain flushes all pending buffers and blocks until every worker has
// replayed everything handed to it. It returns the first replay error. A
// worker that dies instead of acknowledging is detected (the wait selects
// on its done channel rather than hanging) and reported as ErrShardDead.
// Pushes from other goroutines wait for the barrier. An inline engine is
// always drained.
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	return e.quiesceLocked()
}

// Close drains, stops every worker, and rejects further ingestion. It is
// idempotent — a second Close, or a Close racing another Close, a
// Rebalance, an ApplyDelta, or an engine poisoning, returns nil without
// re-closing queues (per-worker close is sync.Once-guarded). Ingestion is
// cut off before the final flush (under the same lock), so a Push that
// returned nil is never silently dropped; a dead worker's queue is closed
// without waiting on it.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	if e.inline == nil {
		for i := range e.pending {
			e.flushShard(i)
		}
	}
	// Workers replay everything queued, then exit; remote workers are
	// asked to exit too (best effort — an unreachable worker is left
	// behind).
	e.stopLocked(true)
	for _, w := range e.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// stopLocked closes every worker's queue, waits for the workers to exit,
// releases the replicas (shutdown asks remote worker processes to exit),
// and rejects further use of the engine. Poisoning uses it without
// shutdown, when replica state may have diverged beyond repair: the
// workers are quiescent then, and remote workers stay up so their state
// remains inspectable. Called with mu held.
func (e *Engine) stopLocked(shutdown bool) {
	e.closed = true
	if e.inline != nil {
		return
	}
	for _, w := range e.workers {
		w.close()
	}
	for _, w := range e.workers {
		<-w.done
	}
	for _, w := range e.workers {
		w.rep.close(shutdown)
	}
}

// quiesceLocked hands every pending buffer over and waits for the workers
// to drain their queues, failing with ErrShardDead if any worker is (or
// turns up) dead. Called with mu held; the lock stays held so no new
// tuples interleave with the maintenance operation that follows.
func (e *Engine) quiesceLocked() error {
	if err := e.quiesceLiveLocked(); err != nil {
		return err
	}
	if e.numDead > 0 {
		return e.deadErrLocked()
	}
	return nil
}

// quiesceLiveLocked quiesces every live worker, detecting newly dead ones
// instead of blocking on them (dead shards are not an error here:
// RecoverShard quiesces the survivors around a corpse). Dead shards'
// pending buffers still reach the WAL — flushShard appends without
// sending — where recovery replays them. Returns the first replay error.
// An inline engine is quiescent whenever mu is held.
func (e *Engine) quiesceLiveLocked() error {
	if e.inline != nil {
		return nil
	}
	for i := range e.pending {
		e.flushShard(i)
	}
	acks := make([]chan error, len(e.workers))
	for i, w := range e.workers {
		if e.dead[i] {
			continue
		}
		ack := make(chan error, 1)
		select {
		case w.ch <- msg{ack: ack}:
			acks[i] = ack
		case <-w.done:
			e.markDeadLocked(i)
		}
	}
	var first error
	for i, ack := range acks {
		if ack == nil {
			continue
		}
		select {
		case err := <-ack:
			if err != nil && first == nil {
				first = err
			}
		case <-e.workers[i].done:
			// The ack may have raced in just before the death.
			select {
			case err := <-ack:
				if err != nil && first == nil {
					first = err
				}
			default:
				e.markDeadLocked(i)
			}
		}
	}
	// Barrier refresh of remote counter snapshots and sticky errors (see
	// Drain); the maintenance operation this barrier precedes may read or
	// rebase the counters.
	for i, w := range e.workers {
		if e.dead[i] {
			continue
		}
		if err := w.rep.refresh(); err != nil {
			if errors.Is(err, ErrShardDead) {
				e.markDeadLocked(i)
				continue
			}
			if first == nil {
				first = err
			}
		}
		if serr := w.rep.stickyErr(); serr != nil && first == nil {
			first = serr
		}
	}
	return first
}

// ApplyDelta makes every engine replica follow one live add or remove at
// a batch-queue barrier: ingestion is blocked, all pending buffers are
// flushed and every worker acknowledges quiescence; then each local
// replica splices ch.Delta (re-lowering dirty m-ops with state
// migration) and each remote worker replays ch.Rec on its own plan, the
// source routing tables are swapped to the new partition plan, the
// merged final counts of the removed queries are frozen under the old
// plan, and onResult (typically a callback over the new query-name table;
// nil for none) replaces the result callback before ingestion resumes.
// The plan shared by the replicas must already carry the delta's
// mutations.
//
// With rebalance set, the extended partition plan re-routes running
// sources: after the delta is spliced, the stored operator state is
// migrated from its placement under the old routes to its placement under
// part (drain → export → re-hash → import), inside the same barrier, and
// the migration's Moved and Dropped counts are returned. This is how a
// live add that the pinned-route ExtendPartition would reject is served
// without an offline restart.
//
// Concurrent Push/PushColumns callers block for the duration; maintenance
// operations themselves must be serialized by the caller.
func (e *Engine) ApplyDelta(ch *Churn, part *core.PartitionPlan, removed []int, onResult func(queryID int, t *stream.Tuple), rebalance bool) (RebalanceStats, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	var st RebalanceStats
	if e.closed {
		return st, errClosed
	}
	if err := e.quiesceLocked(); err != nil {
		return st, err
	}
	// Pre-mutation fault point: an error injected here must leave the
	// engine fully usable (nothing has been spliced or frozen yet).
	if err := faultpoint.Error("shard.delta.apply"); err != nil {
		return st, err
	}
	// Quiescent. Freeze the removed queries' merged counts under the
	// partition plan they were produced with.
	e.statsMu.Lock()
	if len(removed) > 0 && e.frozen == nil {
		e.frozen = make(map[int]int64)
	}
	for _, qid := range removed {
		e.frozen[qid] = e.mergedCountLocked(qid)
	}
	e.statsMu.Unlock()
	// Splice the delta into each replica. A per-replica failure here means
	// the replicas have diverged (some spliced, some not) with no way to
	// unsplice — for local replicas such errors are structurally
	// unreachable for well-formed plans; for remote replicas a lost worker
	// mid-splice lands here too — so the engine is poisoned rather than
	// left inconsistent. The splice holds statsMu: a local replica folds
	// its sink counters into its per-query base as it swaps routing
	// tables, and a concurrent reader must see the counts before or after
	// that fold, never halfway.
	names := e.projectedSrcNamesLocked()
	e.statsMu.Lock()
	for i, w := range e.workers {
		if err := w.rep.applyDelta(ch, names); err != nil {
			e.statsMu.Unlock()
			e.stopLocked(false)
			return st, fmt.Errorf("shard %d: delta splice failed, engine disabled: %w", i, err)
		}
	}
	e.statsMu.Unlock()
	// The replicas now serve the delta's queries: hand their results to
	// the callback that knows them.
	e.onResult = onResult
	e.wireCallbacks()
	if rebalance {
		var err error
		if st, err = e.migrateStateLocked(e.registriesLocked(), e.part.OpSideDists(e.plan), part); err != nil {
			return st, err
		}
		if err := e.rebaseCountsLocked(); err != nil {
			e.stopLocked(false)
			return st, fmt.Errorf("shard: counter rebase failed, engine disabled: %w", err)
		}
	}
	// Swap routing state.
	e.statsMu.Lock()
	e.part = part
	for _, q := range e.plan.Queries {
		if q.ID > e.maxQuery {
			e.maxQuery = q.ID
		}
	}
	e.statsMu.Unlock()
	e.rebuildSourceRoutes(part)
	obs.RecordEvent(obs.EvDeltaApply,
		fmt.Sprintf("shards=%d dirty=%d removed=%d rebalance=%v moved=%d dropped=%d", len(e.workers), len(ch.Delta.Dirty), len(removed), rebalance, st.Moved, st.Dropped),
		time.Since(start))
	return st, nil
}

// rebaseCountsLocked folds every replica's result counters into the base
// table and resets them, so counting starts fresh under the routing epoch
// about to take effect. A frozen (removed) query's count is final: its
// base entry is dropped rather than rebased, so no later epoch — another
// rebalance, a compaction delta, or a re-add reusing the query's channel
// slot — can fold replica counters into it again (the frozen map is the
// single source of truth from the moment of removal). Called at a barrier
// with mu held.
func (e *Engine) rebaseCountsLocked() error {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	for qid := 0; qid <= e.maxQuery; qid++ {
		if _, ok := e.frozen[qid]; ok {
			delete(e.base, qid)
			continue
		}
		e.base[qid] = e.mergedCountLocked(qid)
	}
	for _, w := range e.workers {
		w.tuplesBase = w.tuples.Load()
		if err := w.rep.resetCounts(); err != nil {
			// The fold into base already happened for every query but some
			// replicas still carry unreset counters: the split brain is not
			// repairable here — the caller poisons the engine.
			return fmt.Errorf("shard %d: resetting counters: %w", w.idx, err)
		}
	}
	return nil
}

// ResultCount returns the merged result count for a query. Counts are
// stable only after Drain (or Close) has established quiescence — but the
// call itself is safe concurrently with live maintenance operations. A
// query removed by a live delta reports its frozen final count.
func (e *Engine) ResultCount(queryID int) int64 {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	if n, ok := e.frozen[queryID]; ok {
		return n
	}
	return e.mergedCountLocked(queryID)
}

// mergedCountLocked merges the per-shard counters under the current
// partition plan, on top of the counts accumulated in earlier routing
// epochs (base). Caller holds statsMu.
func (e *Engine) mergedCountLocked(queryID int) int64 {
	n := e.base[queryID]
	if e.part.ReplicatedSinks[queryID] {
		return n + e.workers[0].rep.resultCount(queryID)
	}
	for _, w := range e.workers {
		n += w.rep.resultCount(queryID)
	}
	return n
}

// TotalResults returns the merged result count across all queries. Stable
// only after Drain (or Close); safe concurrently with live maintenance.
func (e *Engine) TotalResults() int64 {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	var n int64
	for qid := 0; qid <= e.maxQuery; qid++ {
		if f, ok := e.frozen[qid]; ok {
			n += f
			continue
		}
		n += e.mergedCountLocked(qid)
	}
	return n
}

// ShardStat reports one shard's load after a Drain.
type ShardStat struct {
	Shard   int
	Tuples  int64 // tuples replayed into the shard's engine
	BusyNS  int64 // time the shard's worker spent replaying
	Results int64 // results produced by the shard's engine
}

// ShardStats returns per-shard load counters as one consistent snapshot:
// it takes the ingestion lock and quiesces the live workers, so Tuples and
// Results reflect exactly the pushes accepted before the call — no manual
// Drain is needed. Concurrent pushers block for the (short) barrier.
//
// Remaining raciness: BusyNS (and the flush-latency histogram behind it)
// is written by the worker goroutine around each batch without
// synchronization beyond the barrier, so a batch whose replay straddles
// the snapshot may land its busy time in the next read; the counter is
// monotone and exact in total. Dead shards are skipped by the quiesce and
// report their last-known counters.
func (e *Engine) ShardStats() []ShardStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		// Quiesce errors (a sticky replay error on some shard) do not make
		// the counters unreadable; the error surfaces on Drain/Close.
		_ = e.quiesceLiveLocked()
	}
	out := make([]ShardStat, len(e.workers))
	for i, w := range e.workers {
		out[i] = ShardStat{Shard: i, Tuples: w.tuples.Load(), BusyNS: w.busyNS.Load(), Results: w.rep.totalResults()}
	}
	return out
}

// Metrics folds the router's and every replica's runtime counters into
// one snapshot at a quiesce barrier: the router counters and per-shard
// labeled gauges come from this process; each live replica contributes
// its engine counters — locally by direct fold, remotely by pulling the
// worker's snapshot over the stats RPC and merging it (counters sum,
// gauges max, histograms add). Per-link health gauges for remote shards
// ride along under cluster_link_*{shard="i"} names. Dead shards are
// skipped (their last counters are gone with the replica); unreachable
// shards make Metrics fail with the transport error.
func (e *Engine) Metrics() (*obs.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := obs.NewSnapshot()
	if !e.closed {
		_ = e.quiesceLiveLocked()
	}
	s.AddCounter("router_multicast_hits_total", e.mcHits)
	s.AddCounter("router_multicast_drops_total", e.mcDrops)
	s.AddCounter("router_wal_batches_total", e.walBatches)
	s.AddCounter("router_wal_entries_total", e.walEntries)
	s.AddCounter("router_wal_bytes_total", e.walBytes)
	var firstErr error
	for i, w := range e.workers {
		label := fmt.Sprintf("{shard=%q}", strconv.Itoa(i))
		s.AddCounter("shard_tuples_total"+label, w.tuples.Load())
		s.AddCounter("shard_busy_ns_total"+label, w.busyNS.Load())
		s.AddHist("shard_flush_ns", w.flush.Data())
		s.AddHist("shard_ingest_batch", w.ingest.Data())
		s.SetGauge("shard_queue_highwater"+label, int64(w.queueHW))
		if e.dead[i] {
			continue
		}
		if err := w.rep.metricsInto(s); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d metrics: %w", i, err)
		}
		if h := w.rep.health(); h != nil {
			s.SetGauge("cluster_link_rtt_ns"+label, h.LastRTTNS)
			s.SetGauge("cluster_link_heartbeats"+label, h.Heartbeats)
			s.SetGauge("cluster_link_redials"+label, h.Redials)
			s.SetGauge("cluster_link_boot_id"+label, h.BootID)
			s.SetGauge("cluster_link_epoch"+label, h.Epoch)
			down := int64(0)
			if h.Down {
				down = 1
			}
			s.SetGauge("cluster_link_down"+label, down)
		}
	}
	return s, firstErr
}

// WorkerHealth reports per-shard replica liveness: a remote replica's
// link health (cluster.Health), whose Dead also holds when the router
// declared the shard dead (ErrShardDead territory). Local (in-process)
// replicas have Remote false and zero link fields. Safe to call at any
// time — it reads only atomics behind the replica interface (no barrier,
// no RPC).
type WorkerHealth struct {
	Shard  int
	Remote bool
	cluster.Health
}

// WorkerHealth returns one entry per shard, in shard order.
func (e *Engine) WorkerHealth() []WorkerHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]WorkerHealth, len(e.workers))
	for i, w := range e.workers {
		wh := WorkerHealth{Shard: i}
		if h := w.rep.health(); h != nil {
			wh.Remote, wh.Health = true, *h
		}
		wh.Dead = wh.Dead || e.dead[i]
		out[i] = wh
	}
	return out
}

// NumShards returns the number of engine replicas.
func (e *Engine) NumShards() int { return len(e.workers) }

// PartitionPlan returns the routing decisions in effect.
func (e *Engine) PartitionPlan() *core.PartitionPlan { return e.part }

// Inline reports whether the engine runs inline: exactly one in-process
// replica, replayed in the pusher's goroutine (see the package doc).
func (e *Engine) Inline() bool { return e.inline != nil }
