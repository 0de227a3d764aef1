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

// WorkerConfig is Serve's configuration. It holds no setting: a worker
// bounds frames by transport.DefaultMaxFrame, as a client does.
type WorkerConfig struct{}

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
func Serve(lis net.Listener, _ WorkerConfig) error {
	return NewWorker().Serve(lis)
}

// Worker is an addressable shard-worker instance: Serve in one goroutine,
// Metrics from any other (the exposition endpoint of cmd/rumornode).
type Worker struct {
	st *workerState
}

// NewWorker creates a worker with a fresh boot ID; call Serve to run it.
func NewWorker() *Worker {
	return &Worker{st: &workerState{bootID: randomID()}}
}

// Serve accepts and serves coordinator connections until a Shutdown frame
// or a listener error — the loop documented on the package-level Serve.
func (w *Worker) Serve(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		stop := w.st.serveConn(conn)
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

	// Decode scratch, reused across calls: the call frame and its batch.
	codec wire.Codec
	in    call
	batch batch

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

// serveConn handshakes and serves one connection. Returns true when a
// Shutdown frame asks the worker to exit. A connection that fails is
// dropped: the client sees it lost and redials, or reads the refusal in
// the ack's Err.
func (st *workerState) serveConn(conn net.Conn) bool {
	fc := transport.NewConn(conn, transport.DefaultMaxFrame)
	typ, payload, err := fc.ReadFrame()
	if err == nil && typ == frameShutdown {
		return true
	}
	h := &hello{}
	if err != nil || typ != frameHello || wire.Unmarshal(payload, h, helloFields) != nil {
		return false
	}
	ack := st.handshake(h)
	ackBytes, _ := wire.Marshal(ack, helloAckFields)
	if fc.WriteFrame(frameHelloAck, ackBytes) != nil || ack.Err != "" {
		return false
	}
	for {
		typ, payload, err := fc.ReadFrame()
		if err != nil {
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
			st.in = call{}
			if wire.Decode(&st.codec, payload, &st.in, callFields) != nil {
				return false
			}
			callID := st.in.ID
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
			st.lastReply = st.reply(callID, st.in.Op, st.in.Body)
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
	if h.Resume {
		// Redial after a fault: keep the replica, report how far it got. A
		// replica this process does not hold (it restarted, or serves
		// another epoch or shard by now) cannot be resumed; building one
		// would hand the client an empty replica and drop the one served.
		if st.eng == nil || h.Epoch != st.epoch || h.ShardIdx != st.shardIdx || h.ShardCount != st.shardCount {
			ack.Err = fmt.Sprintf("cannot resume epoch %d shard %d of %d: serving epoch %d shard %d of %d",
				h.Epoch, h.ShardIdx, h.ShardCount, st.epoch, st.shardIdx, st.shardCount)
			return ack
		}
		ack.LastApplied = st.lastApplied
		ack.Groups = st.eng.StateRegistry().Groups()
		return ack
	}
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
	plan, err := core.RebuildPhysical(snap)
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
	decls, err := core.CatalogDecls(call.Sources)
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
	var d *core.Delta
	switch rec.Op {
	case wire.ChurnAdd:
		d, err = live.AddQuery(st.plan, call.Options, core.NewQuery(rec.Name, rec.Root))
	case wire.ChurnRemove:
		i := slices.IndexFunc(st.plan.Queries, func(q *core.Query) bool { return q.Name == rec.Name })
		if i < 0 {
			return nil, fmt.Errorf("remove of %q: no such query", rec.Name)
		}
		d, err = live.RemoveQuery(st.plan, st.plan.Queries[i].ID)
	}
	if err != nil {
		return nil, err
	}
	if fp := st.plan.Fingerprint(); fp != rec.Fingerprint {
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
		completedFields(out, &st.lastApplied)
		return nil
	case opDrain:
		firstErr := ""
		if st.firstErr != nil {
			firstErr = st.firstErr.Error()
		}
		return wire.Encode(out, &drainReply{st.eng.SnapshotCounts(), st.eng.TotalResults(), firstErr}, drainFields)
	case opChurn:
		call := &ChurnCall{}
		if err := wire.Unmarshal(body, call, churnCallFields); err != nil {
			return err
		}
		d, err := st.replayChurn(call)
		if err != nil {
			return err
		}
		if err := st.eng.ApplyDelta(d); err != nil {
			return fmt.Errorf("applying delta: %w", err)
		}
		groups := st.eng.StateRegistry().Groups()
		return wire.Encode(out, &groups, groupsFields)
	case opExport:
		var m sideCall
		if err := wire.Unmarshal(body, &m, sideCallFields); err != nil {
			return err
		}
		pl, err := st.eng.StateRegistry().Export(m.OpID, m.Side, m.KeyAttr, func(int64, int) bool { return true })
		if err != nil {
			return err
		}
		if pl == nil || pl.Len() == 0 {
			return nil
		}
		return wire.Encode(out, &sideCall{pl: pl}, exportReplyFields)
	case opImport:
		var m sideCall
		if err := wire.Unmarshal(body, &m, importCallFields); err != nil {
			return err
		}
		pl, err := wire.DecodePayloadBytes(m.Payload)
		if err != nil {
			return fmt.Errorf("decoding payload: %w", err)
		}
		if pl == nil || pl.Len() == 0 {
			return nil
		}
		// The decoded payload is this worker's own fresh copy; the store
		// takes full ownership.
		return st.eng.StateRegistry().Import(m.OpID, pl, false)
	case opHistogram:
		var m sideCall
		if err := wire.Unmarshal(body, &m, sideCallFields); err != nil {
			return err
		}
		h := make(map[int64]int64)
		st.eng.StateRegistry().Histogram(m.OpID, m.Side, m.KeyAttr, h)
		return wire.Encode(out, histOf(h), histFields)
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
		return wire.Encode(out, statsOf(s), statsFields)
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
