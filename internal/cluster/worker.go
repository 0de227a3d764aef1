package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// WorkerConfig tunes a shard worker process.
type WorkerConfig struct {
	// MaxFrame bounds a protocol frame; 0 means transport.DefaultMaxFrame.
	MaxFrame int
	// Logf, when set, receives connection lifecycle notes.
	Logf func(format string, args ...any)
}

// Serve runs one shard worker on the listener: it accepts the
// coordinator's connection, performs the handshake (building an engine
// replica from the shipped plan snapshot, or resuming the existing one
// when the coordinator redials after a network fault), and executes RPCs
// until a Shutdown frame arrives. A broken connection sends it back to
// Accept with all state retained — the at-least-once call layer makes the
// redial seamless. Serve returns nil after Shutdown, or the listener's
// Accept error (i.e. when the listener is closed from outside).
//
// One Serve instance hosts exactly one shard replica; run one per process
// (cmd/rumornode) or several on distinct listeners for in-process tests.
func Serve(lis net.Listener, cfg WorkerConfig) error {
	return NewWorker(cfg).Serve(lis)
}

// Worker is an addressable shard-worker instance: Serve in one goroutine,
// Metrics from any other (the exposition endpoint of cmd/rumornode).
type Worker struct {
	st *workerState
}

// NewWorker creates a worker with a fresh boot ID; call Serve to run it.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{st: &workerState{cfg: cfg, bootID: randomID()}}
}

// Serve accepts and serves coordinator connections until a Shutdown frame
// or a listener error — the loop documented on the package-level Serve.
func (w *Worker) Serve(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		stop := w.st.serveConn(conn, w.st.cfg)
		_ = conn.Close()
		if stop {
			return nil
		}
	}
}

// Metrics snapshots the counters that are safe to read concurrently with
// a live serving loop: the worker-level atomics (batches/entries applied,
// dedup skips, reply-cache hits) plus the boot ID. Engine-level detail is
// deliberately absent — it flows through the stats RPC, which the serving
// loop executes serialized with batch replay. A scrape therefore never
// races the engine.
func (w *Worker) Metrics() *obs.Snapshot {
	s := obs.NewSnapshot()
	w.st.countersInto(s)
	s.SetGauge("worker_boot_id", w.st.bootID)
	return s
}

func randomID() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: reading random boot ID: %v", err))
	}
	// Clear the sign bit; 0 is reserved for "never connected".
	id := int64(binary.LittleEndian.Uint64(b[:]) &^ (1 << 63))
	if id == 0 {
		id = 1
	}
	return id
}

// workerState is the replica state that survives reconnects: the plan,
// the engine that runs it, the dedup cursor, and the last-reply cache.
type workerState struct {
	cfg    WorkerConfig
	bootID int64

	epoch      int64
	shardIdx   int
	shardCount int
	// plan is the worker's own copy of the coordinator's plan: built at a
	// fresh handshake, then kept in step by replaying each live add or
	// remove on it (replayChurn). eng runs it.
	plan     *core.Physical
	eng      *engine.Engine
	srcNames []string

	// lastApplied is the highest WAL batch seq replayed into the engine;
	// batches at or below it are acknowledged without re-execution
	// (at-least-once delivery dedup).
	lastApplied int64
	// firstErr is the sticky first replay error, surfaced in Drain replies
	// (mirroring the local worker's w.err).
	firstErr error

	// Reply cache: a retried call (same ID) gets the cached reply instead
	// of re-executing — required for destructive calls like state exports.
	// lastReply is the sealed reply frame, encoded in place in replyBuf;
	// it stays valid until the next new call reuses the buffer.
	lastCallID int64
	lastReply  []byte
	replyBuf   wire.Buffer

	// Batch decode scratch, reused across batches.
	batch batchDecoder

	// Telemetry. Atomics because Worker.Metrics reads them from an
	// arbitrary goroutine while serveConn is live; everything else in this
	// struct is owned by the serving goroutine.
	batchesApplied  atomic.Int64
	entriesReplayed atomic.Int64 // rows: a column run counts every row
	dedupSkips      atomic.Int64
	replyCacheHits  atomic.Int64
}

// countersInto folds the worker-level atomics into s.
func (st *workerState) countersInto(s *obs.Snapshot) {
	s.AddCounter("worker_batches_applied_total", st.batchesApplied.Load())
	s.AddCounter("worker_entries_replayed_total", st.entriesReplayed.Load())
	s.AddCounter("worker_batches_deduped_total", st.dedupSkips.Load())
	s.AddCounter("worker_reply_cache_hits_total", st.replyCacheHits.Load())
}

func (st *workerState) logf(format string, args ...any) {
	if st.cfg.Logf != nil {
		st.cfg.Logf(format, args...)
	}
}

// serveConn handshakes and serves one connection. Returns true when a
// Shutdown frame asks the worker to exit.
func (st *workerState) serveConn(conn net.Conn, cfg WorkerConfig) bool {
	fc := transport.NewConn(conn, cfg.MaxFrame)
	typ, payload, err := fc.ReadFrame()
	if err != nil {
		st.logf("cluster: handshake read: %v", err)
		return false
	}
	if typ == frameShutdown {
		return true
	}
	if typ != frameHello {
		st.logf("cluster: first frame type %d, want Hello", typ)
		return false
	}
	h, err := decodeHello(payload)
	if err != nil {
		st.logf("cluster: decoding Hello: %v", err)
		return false
	}
	ack := st.handshake(h)
	if err := fc.WriteFrame(frameHelloAck, encodeHelloAck(ack)); err != nil {
		st.logf("cluster: writing HelloAck: %v", err)
		return false
	}
	if ack.Err != "" {
		st.logf("cluster: rejected handshake: %s", ack.Err)
		return false
	}
	for {
		typ, payload, err := fc.ReadFrame()
		if err != nil {
			st.logf("cluster: connection lost: %v", err)
			return false
		}
		switch typ {
		case frameHeartbeat:
			if err := fc.WriteFrame(frameHeartbeatAck, nil); err != nil {
				return false
			}
		case frameShutdown:
			return true
		case frameCall:
			callID, op, body, err := decodeCall(payload)
			if err != nil {
				st.logf("cluster: decoding call: %v", err)
				return false
			}
			if callID == st.lastCallID && st.lastReply != nil {
				// Retried call: the previous execution's reply was lost in
				// flight; re-send it without re-executing.
				st.replyCacheHits.Add(1)
				if err := fc.WriteSealed(st.lastReply); err != nil {
					return false
				}
				continue
			}
			if callID < st.lastCallID {
				st.dedupSkips.Add(1)
				continue // stale duplicate of an already-superseded call
			}
			st.lastCallID = callID
			st.lastReply = st.reply(callID, op, body)
			if err := fc.WriteSealed(st.lastReply); err != nil {
				return false
			}
		default:
			// Unknown frame type: skip (forward compatibility).
		}
	}
}

// handshake validates a Hello and prepares the replica, returning the ack.
func (st *workerState) handshake(h *hello) *helloAck {
	ack := &helloAck{Proto: ProtoVersion, BootID: st.bootID}
	switch {
	case h.Proto != ProtoVersion:
		ack.Err = fmt.Sprintf("protocol version %d, worker speaks %d", h.Proto, ProtoVersion)
		return ack
	case h.ShardCount < 1 || h.ShardIdx < 0 || h.ShardIdx >= h.ShardCount:
		ack.Err = fmt.Sprintf("shard %d of %d out of range", h.ShardIdx, h.ShardCount)
		return ack
	}
	if h.Resume && st.eng != nil && h.Epoch == st.epoch && h.ShardIdx == st.shardIdx && h.ShardCount == st.shardCount {
		// Redial after a fault: keep the replica, report how far it got.
		ack.LastApplied = st.lastApplied
		ack.Groups = st.eng.StateRegistry().Groups()
		return ack
	}
	// Fresh cluster (or a fresh process being offered a resume it cannot
	// honour — the coordinator detects that by the boot ID change).
	plan, eng, err := buildEngine(h.PlanBytes)
	if err != nil {
		ack.Err = err.Error()
		return ack
	}
	st.epoch = h.Epoch
	st.shardIdx = h.ShardIdx
	st.shardCount = h.ShardCount
	st.plan = plan
	st.eng = eng
	st.srcNames = h.SrcNames
	st.lastApplied = 0
	st.firstErr = nil
	st.lastCallID = 0
	st.lastReply = nil
	ack.LastApplied = 0
	ack.Groups = eng.StateRegistry().Groups()
	return ack
}

// buildEngine rebuilds a physical plan from a wire snapshot and lowers an
// engine over it.
func buildEngine(planBytes []byte) (*core.Physical, *engine.Engine, error) {
	snap, err := wire.DecodePlanBytes(planBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding plan snapshot: %w", err)
	}
	catalog, err := snap.CatalogDecls()
	if err != nil {
		return nil, nil, fmt.Errorf("rebuilding catalog: %w", err)
	}
	plan, err := core.RebuildPhysical(catalog, snap)
	if err != nil {
		return nil, nil, fmt.Errorf("rebuilding plan: %w", err)
	}
	eng, err := engine.New(plan)
	return plan, eng, err
}

// replayChurn runs one live add or remove on the worker's plan as the
// coordinator ran it on its own, and returns the delta for the engine.
// Live maintenance is deterministic in the encoded plan, so the two plans
// stay equal; a fingerprint that differs from the record's fails the call.
func (st *workerState) replayChurn(call *ChurnCall) (*core.Delta, error) {
	decls, err := (&core.PlanSnapshot{Sources: call.Sources}).CatalogDecls()
	if err != nil {
		return nil, err
	}
	for name, decl := range decls {
		if _, ok := st.plan.Catalog[name]; !ok {
			st.plan.Catalog[name] = decl
		}
	}
	st.srcNames = call.srcNames()
	rec := call.Rec
	m := live.NewMaintainer(st.plan, call.Options)
	var d *core.Delta
	switch rec.Op {
	case wire.ChurnAdd:
		d, err = m.AddQuery(core.NewQuery(rec.Name, rec.Root))
	case wire.ChurnRemove:
		i := slices.IndexFunc(st.plan.Queries, func(q *core.Query) bool { return q.Name == rec.Name })
		if i < 0 {
			return nil, fmt.Errorf("remove of %q: no such query", rec.Name)
		}
		d, err = m.RemoveQuery(st.plan.Queries[i].ID)
	}
	if err != nil {
		return nil, err
	}
	_, fp, err := wire.FingerprintPlan(st.plan)
	if err != nil {
		return nil, err
	}
	if fp != rec.Fingerprint {
		return nil, fmt.Errorf("churn of %q: plan fingerprint %016x, coordinator's %016x", rec.Name, fp, rec.Fingerprint)
	}
	return d, nil
}

// reply executes one call and encodes its whole reply frame in place into
// the worker's reply buffer, which the next new call reuses.
func (st *workerState) reply(callID int64, op byte, body []byte) []byte {
	return encodeFrame(&st.replyBuf, frameReply, func(b *wire.Buffer) {
		putReply(b, callID, func(out *wire.Buffer) error { return st.handle(op, body, out) })
	})
}

// handle executes one RPC, writing its reply body into out. An error
// return travels back as the reply's errStr; replay errors inside a batch
// are sticky instead (surfaced by Drain), matching the local worker's
// error contract.
func (st *workerState) handle(op byte, body []byte, out *wire.Buffer) error {
	if st.eng == nil {
		return fmt.Errorf("no engine (handshake incomplete)")
	}
	switch op {
	case opBatch:
		seq, entries, err := st.batch.decode(body)
		if err != nil {
			return err
		}
		if seq > st.lastApplied {
			// A fresh replica (lastApplied 0) baselines at whatever seq the
			// coordinator replays first — recovery catch-up starts mid-WAL.
			if st.lastApplied != 0 && seq != st.lastApplied+1 {
				return fmt.Errorf("batch seq %d after %d: gap in WAL delivery", seq, st.lastApplied)
			}
			if err := ReplayBatch(st.eng, st.srcNames, entries); err != nil && st.firstErr == nil {
				st.firstErr = err
			}
			st.lastApplied = seq
			st.batchesApplied.Add(1)
			st.entriesReplayed.Add(BatchRows(entries))
		} else {
			st.dedupSkips.Add(1)
		}
		out.PutVarintField(1, st.lastApplied)
		return nil
	case opDrain:
		firstErr := ""
		if st.firstErr != nil {
			firstErr = st.firstErr.Error()
		}
		out.Append(encodeDrainReply(st.eng.SnapshotCounts(), st.eng.TotalResults(), firstErr))
		return nil
	case opChurn:
		call, err := decodeChurnCall(body)
		if err != nil {
			return err
		}
		d, err := st.replayChurn(call)
		if err != nil {
			return err
		}
		if err := st.eng.ApplyDelta(d); err != nil {
			return fmt.Errorf("applying delta: %w", err)
		}
		out.Append(encodeGroupsReply(st.eng.StateRegistry().Groups()))
		return nil
	case opExport:
		opID, side, keyAttr, err := decodeSideCall(body)
		if err != nil {
			return err
		}
		pl, err := st.eng.StateRegistry().Export(opID, side, keyAttr, func(int64, int) bool { return true })
		if err != nil {
			return err
		}
		if pl == nil || pl.Len() == 0 {
			return nil
		}
		raw := wire.EncodePayloadBytes(pl)
		pl.Discard()
		out.Append(encodeBytesField1(raw))
		return nil
	case opImport:
		opID, payloadBytes, err := decodeImportCall(body)
		if err != nil {
			return err
		}
		if len(payloadBytes) == 0 {
			return nil
		}
		pl, err := wire.DecodePayloadBytes(payloadBytes)
		if err != nil {
			return fmt.Errorf("decoding payload: %w", err)
		}
		if pl == nil || pl.Len() == 0 {
			return nil
		}
		// The decoded payload is this worker's own fresh copy; the store
		// takes full ownership.
		if err := st.eng.StateRegistry().Import(opID, pl, false); err != nil {
			return err
		}
		return nil
	case opHistogram:
		opID, side, keyAttr, err := decodeSideCall(body)
		if err != nil {
			return err
		}
		h := make(map[int64]int64)
		st.eng.StateRegistry().Histogram(opID, side, keyAttr, h)
		out.Append(encodeHistReply(h))
		return nil
	case opResetCounts:
		st.eng.ResetCounts()
		return nil
	case opStats:
		// Runs on the serving goroutine, serialized with batch replay, so
		// reading the engine's plain counters here is race-free. The boot
		// ID is deliberately absent: the coordinator max-merges gauges
		// across shards, which would garble per-shard identities.
		s := obs.NewSnapshot()
		st.countersInto(s)
		st.eng.MetricsInto(s)
		out.Append(encodeStatsReply(s))
		return nil
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// ReplayBatch pushes a WAL batch into an engine replica — the one replay
// loop behind both the in-process shard replica and the remote worker:
// each run goes to PushColumnsSel in one call, with its selection, naming
// its source through srcNames. It replays every entry even after a
// failure and returns the first error.
func ReplayBatch(eng *engine.Engine, srcNames []string, entries []Entry) error {
	var first error
	for _, en := range entries {
		var err error
		if en.Src < 0 || int(en.Src) >= len(srcNames) {
			err = fmt.Errorf("source id %d outside the source table (%d names)", en.Src, len(srcNames))
		} else {
			err = eng.PushColumnsSel(srcNames[en.Src], en.Run.TS, en.Run.Cols, en.Run.Sel)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
