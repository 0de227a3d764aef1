// Package cluster puts the sharded runtime on the network: a coordinator
// process routes tuples exactly as before, but a shard's engine replica
// can live in another process (a worker, see Serve) reached over the
// framed transport (internal/transport) carrying internal/wire payloads.
//
// Protocol shape:
//
//   - A connection starts with a handshake: the coordinator sends Hello
//     (protocol version, shard index/count, cluster epoch, source-name
//     table, plan snapshot); the worker validates it, builds or keeps its
//     engine, and answers HelloAck (its boot ID, last applied WAL seq, and
//     state-group table). A version or shard-count mismatch is rejected in
//     the ack and is terminal for the client.
//
//   - All RPCs are Call/Reply frames with a client-chosen monotonically
//     increasing call ID and exactly one call outstanding per connection.
//     Delivery is at-least-once: a client that loses a connection (or
//     times out) redials and retries the same call ID. The worker caches
//     its last reply and re-sends it when a retried ID matches, so
//     destructive calls (state exports, WAL batches) execute at most once;
//     WAL batches are additionally deduplicated by sequence number against
//     the worker-published completed seq.
//
//   - Heartbeat/HeartbeatAck frames probe liveness when the link is
//     otherwise idle; in-flight calls double as liveness signals.
//     Unknown frame types are skipped by both sides.
//
// Failure semantics: a client that cannot reach its worker enters an
// unreachable state (reported via OnDown; the shard layer fails Push fast
// with a typed error) and redials with bounded exponential backoff plus
// jitter. If the outage outlasts FailTimeout, or the worker comes back
// with a different boot ID (a restarted process, i.e. replica state lost),
// the client declares the worker lost — terminal — and the shard layer's
// dead-shard machinery (RecoverShard, checkpoint restore) takes over.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/mop"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ProtoVersion is checked in the handshake; mismatched peers refuse to
// talk (the codec's unknown-field skip covers additive evolution inside a
// version). Version 2 carried column runs in WAL batches, which a version
// 1 worker would skip as an unknown field, silently dropping their rows.
// Version 3 bit-packs a run's columns (wire.PutBitPackedField) where
// version 2 wrote varints: a version 2 worker would misread them. Version
// 4 drops a batch's row form (field 2): rows cross as runs, and a version
// 4 worker would skip a version 3 coordinator's rows as an unknown field.
// Version 5 ships a live add or remove as a churn record the worker
// replays on its own plan (opChurn), where version 4 shipped the post-op
// plan snapshot and a delta under the same opcode.
const ProtoVersion = 5

// Frame types.
//
//rumor:wiretags
const (
	frameHello        byte = 1 //rumor:notag — handshake preamble, matched by equality
	frameHelloAck     byte = 2 //rumor:notag — handshake preamble, matched by equality
	frameCall         byte = 3
	frameReply        byte = 4
	frameHeartbeat    byte = 5
	frameHeartbeatAck byte = 6
	frameShutdown     byte = 7
)

// Call opcodes.
//
//rumor:wiretags
const (
	opBatch       byte = 1 // replay one WAL batch (dedup by seq)
	opDrain       byte = 2 // quiesce: counts snapshot + sticky replay error
	opChurn       byte = 3 // replay one live add or remove on the worker's plan
	opExport      byte = 4 // destructive state export of one group side
	opImport      byte = 5 // state import into one group
	opHistogram   byte = 6 // keyed-state histogram of one group side
	opResetCounts byte = 7 // zero the per-query result counters
	opStats       byte = 8 // pull the worker's telemetry snapshot
)

// Entry is one element of a WAL batch: a column run of one source, named
// by its coordinator-assigned source ID (resolved through the handshake's
// source-name table). A run stands for many rows in one entry, so queues,
// the WAL and the wire pay per run, not per row. The shard router hands
// over runs only. A caller of Client.Replay that holds single rows may
// leave Run nil and give one row as TS and Vals instead; Replay merges
// each stretch of such rows of one source into one run, as the router
// does, so no row form reaches the wire, the worker or a WAL.
type Entry struct {
	Src  int32
	Run  *Run
	TS   int64
	Vals []int64
}

// Run is a column-major run of rows of one source: TS[i] pairs with
// Cols[a][i]. Sel, when non-nil, is a selection bitmap: the run stands
// for row i only if Sel[i>>6] has bit i&63. A nil Sel selects every row.
// The shard router builds a run of its own for the rows of Push and
// PushBatch calls, appending each row to its destination shard's open run
// of the row's source; for a PushColumns call it gives each destination
// shard a run that shares the pushed TS and Cols arrays and selects that
// shard's rows, so those arrays stay referenced until every shard's WAL
// has pruned its run. Runs held in a WAL are never mutated, so a
// redelivered batch re-encodes to the same bytes.
type Run struct {
	TS   []int64
	Cols [][]int64
	Sel  []uint64
}

// Rows returns the number of rows the run stands for: its selected rows.
func (r *Run) Rows() int {
	if r.Sel == nil {
		return len(r.TS)
	}
	n := 0
	for _, w := range r.Sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// BatchRows counts the rows across a batch of entries.
func BatchRows(es []Entry) int64 {
	var n int64
	for i := range es {
		n += int64(es[i].Run.Rows())
	}
	return n
}

// hello is the coordinator's handshake.
type hello struct {
	Proto      int
	ShardIdx   int
	ShardCount int
	Epoch      int64
	Resume     bool
	SrcNames   []string
	PlanBytes  []byte
}

func encodeHello(h *hello) []byte {
	var b wire.Buffer
	b.PutVarintField(1, int64(h.Proto))
	b.PutVarintField(2, int64(h.ShardIdx))
	b.PutVarintField(3, int64(h.ShardCount))
	b.PutVarintField(4, h.Epoch)
	b.PutBoolField(5, h.Resume)
	for _, name := range h.SrcNames {
		b.PutStringField(6, name)
	}
	b.PutBytesField(7, h.PlanBytes)
	return b.Bytes()
}

func decodeHello(p []byte) (*hello, error) {
	h := &hello{}
	r := wire.NewReader(p)
	err := r.Fields(func(field, _ int) (err error) {
		var v int64
		var raw []byte
		switch field {
		case 1:
			h.Proto, err = r.Int()
		case 2:
			h.ShardIdx, err = r.Int()
		case 3:
			h.ShardCount, err = r.Int()
		case 4:
			h.Epoch, err = r.Varint()
		case 5:
			v, err = r.Varint()
			h.Resume = v != 0
		case 6:
			var name string
			name, err = r.String()
			h.SrcNames = append(h.SrcNames, name)
		case 7:
			raw, err = r.Bytes()
			h.PlanBytes = append([]byte(nil), raw...)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// helloAck is the worker's handshake answer.
type helloAck struct {
	Proto       int
	BootID      int64
	LastApplied int64
	Err         string
	Groups      []mop.GroupRef
}

func encodeHelloAck(a *helloAck) []byte {
	var b wire.Buffer
	b.PutVarintField(1, int64(a.Proto))
	b.PutVarintField(2, a.BootID)
	b.PutVarintField(3, a.LastApplied)
	if a.Err != "" {
		b.PutStringField(4, a.Err)
	}
	putGroups(&b, 5, a.Groups)
	return b.Bytes()
}

func decodeHelloAck(p []byte) (*helloAck, error) {
	a := &helloAck{}
	r := wire.NewReader(p)
	err := r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			a.Proto, err = r.Int()
		case 2:
			a.BootID, err = r.Varint()
		case 3:
			a.LastApplied, err = r.Varint()
		case 4:
			a.Err, err = r.String()
		case 5:
			var g mop.GroupRef
			g, err = readGroup(r)
			a.Groups = append(a.Groups, g)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func putGroups(b *wire.Buffer, field int, groups []mop.GroupRef) {
	for _, g := range groups {
		b.PutMsgField(field, func(sub *wire.Buffer) {
			sub.PutVarintField(1, int64(g.OpID))
			sub.PutIntsField(2, g.OpIDs)
			sub.PutIntsField(3, g.Sides)
		})
	}
}

func readGroup(r *wire.Reader) (mop.GroupRef, error) {
	var g mop.GroupRef
	sub, err := r.Msg()
	if err != nil {
		return g, err
	}
	err = sub.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			g.OpID, err = sub.Int()
		case 2:
			g.OpIDs, err = sub.Ints()
		case 3:
			g.Sides, err = sub.Ints()
		}
		return err
	})
	return g, err
}

// call frame: {1: callID, 2: op, 3: body}, the body written by body
// straight into b.
func putCall(b *wire.Buffer, callID int64, op byte, body func(*wire.Buffer)) {
	b.PutVarintField(1, callID)
	b.PutVarintField(2, int64(op))
	b.PutMsgField(3, body)
}

// encodeFrame encodes a whole frame of type typ into b, which it resets:
// room for the frame header, the message written in place by msg, room for
// the trailer, sealed. The bytes are those of the message framed by
// transport.AppendFrame, with no copy of the message.
func encodeFrame(b *wire.Buffer, typ byte, msg func(*wire.Buffer)) []byte {
	b.Reset()
	b.Append(make([]byte, transport.HeaderLen))
	msg(b)
	b.Append(make([]byte, transport.TrailerLen))
	frame := b.Bytes()
	transport.SealFrame(frame, typ)
	return frame
}

// encodeCallFrame encodes the whole call frame into b, the call's body
// written in place (see encodeFrame).
func encodeCallFrame(b *wire.Buffer, callID int64, op byte, body func(*wire.Buffer)) []byte {
	return encodeFrame(b, frameCall, func(b *wire.Buffer) { putCall(b, callID, op, body) })
}

func decodeCall(p []byte) (callID int64, op byte, body []byte, err error) {
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			callID, err = r.Varint()
		case 2:
			var v int64
			v, err = r.Varint()
			if err == nil && (v < 0 || v > math.MaxUint8) {
				err = fmt.Errorf("%w: opcode %d", wire.ErrCorrupt, v)
			}
			op = byte(v)
		case 3:
			body, err = r.Bytes()
		}
		return err
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return callID, op, body, nil
}

// reply frame: {1: callID, 2: errStr, 3: body, 4: corrupt}; corrupt
// marks an error that rejected undecodable input (wire.ErrCorrupt). body
// writes the reply body straight into b and returns the call's error. A
// successful reply's body stays where it was written; an error reply
// moves the body behind the error text, so the fields keep their order.
func putReply(b *wire.Buffer, callID int64, body func(*wire.Buffer) error) {
	b.PutVarintField(1, callID)
	at := b.Len()
	var callErr error
	n := 0
	b.PutMsgField(3, func(b *wire.Buffer) {
		start := b.Len()
		callErr = body(b)
		n = b.Len() - start
	})
	if callErr == nil {
		return
	}
	raw := bytes.Clone(b.Bytes()[b.Len()-n:])
	b.Truncate(at)
	b.PutStringField(2, callErr.Error())
	b.PutBytesField(3, raw)
	if errors.Is(callErr, wire.ErrCorrupt) {
		b.PutBoolField(4, true)
	}
}

func decodeReply(p []byte) (callID int64, errStr string, corrupt bool, body []byte, err error) {
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			callID, err = r.Varint()
		case 2:
			errStr, err = r.String()
		case 3:
			body, err = r.Bytes()
		case 4:
			var v int64
			v, err = r.Varint()
			corrupt = v != 0
		}
		return err
	})
	if err != nil {
		return 0, "", false, nil, err
	}
	return callID, errStr, corrupt, body, nil
}

// batch body: {1: seq, 3*: run{1: src, 2: ts, 3*: column}}, runs in
// entry order; reply {1: completed}. Field 2 carried a row until protocol
// version 4 and is not reused. A run's timestamps and each of its columns
// are a bit-packed column (wire.PutBitPackedField: blocks of 128 values,
// each a minimum, a bit width and the values less the minimum in that
// many bits). A run carries only its selected rows, packed straight from
// the selection, so a decoded run has a nil Sel.
func putBatch(b *wire.Buffer, seq int64, entries []Entry) {
	b.PutVarintField(1, seq)
	for i := range entries {
		en := &entries[i]
		b.PutMsgField(3, func(b *wire.Buffer) {
			b.PutVarintField(1, int64(en.Src))
			b.PutBitPackedField(2, en.Run.TS, en.Run.Sel)
			for _, col := range en.Run.Cols {
				b.PutBitPackedField(3, col, en.Run.Sel)
			}
		})
	}
}

// batchDecoder decodes batch bodies into storage it reuses from one batch
// to the next: the entry slice, the runs, and one slab that holds every
// run's timestamps and columns. A decoded batch is valid until the next
// decode. Reusing the slab is sound only because engine.PushColumnsSel
// borrows a run's columns just until it returns.
type batchDecoder struct {
	entries []Entry
	runs    []*Run
	slab    []int64
}

// decode decodes one batch body. A source id outside [0, MaxInt32], or a
// run whose columns differ in length from its timestamps, is corrupt.
func (d *batchDecoder) decode(p []byte) (seq int64, entries []Entry, err error) {
	clear(d.entries)
	d.entries = d.entries[:0]
	d.slab = d.slab[:0]
	runs := 0
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			seq, err = r.Varint()
		case 3:
			if runs == len(d.runs) {
				d.runs = append(d.runs, &Run{})
			}
			run := d.runs[runs]
			runs++
			var src int32
			src, err = d.decodeRun(r, run)
			d.entries = append(d.entries, Entry{Src: src, Run: run})
		}
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	return seq, d.entries, nil
}

// srcID range-checks a decoded source id.
func srcID(v int64) (int32, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: source id %d", wire.ErrCorrupt, v)
	}
	return int32(v), nil
}

// decodeRun decodes one run message into run, its slices cut from the
// slab. Each slice is capped at its own length; a slab that grows
// mid-batch leaves earlier slices in the old array, where they stay valid.
func (d *batchDecoder) decodeRun(r *wire.Reader, run *Run) (src int32, err error) {
	sub, err := r.Msg()
	if err != nil {
		return 0, err
	}
	clear(run.Cols)
	run.TS, run.Cols = nil, run.Cols[:0]
	err = sub.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			var v int64
			if v, err = sub.Varint(); err == nil {
				src, err = srcID(v)
			}
		case 2, 3:
			start := len(d.slab)
			if d.slab, err = sub.AppendBitPacked(d.slab); err == nil {
				vs := d.slab[start:len(d.slab):len(d.slab)]
				if field == 2 {
					run.TS = vs
				} else {
					run.Cols = append(run.Cols, vs)
				}
			}
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	for a, col := range run.Cols {
		if len(col) != len(run.TS) {
			return 0, fmt.Errorf("%w: run column %d has %d rows, %d timestamps", wire.ErrCorrupt, a, len(col), len(run.TS))
		}
	}
	return src, nil
}

// drain reply body: {1: counts, 2: total, 3: firstErr}.
func encodeDrainReply(counts []int64, total int64, firstErr string) []byte {
	var b wire.Buffer
	b.PutInt64sField(1, counts)
	b.PutVarintField(2, total)
	if firstErr != "" {
		b.PutStringField(3, firstErr)
	}
	return b.Bytes()
}

func decodeDrainReply(p []byte) (counts []int64, total int64, firstErr string, err error) {
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			counts, err = r.Int64s()
		case 2:
			total, err = r.Varint()
		case 3:
			firstErr, err = r.String()
		}
		return err
	})
	if err != nil {
		return nil, 0, "", err
	}
	return counts, total, firstErr, nil
}

// ChurnCall is one live add or remove as a worker replays it on its own
// plan: the churn record, whose fingerprint is the coordinator's post-op
// plan's; the rule options the plan is maintained under (Channels and
// ChannelMinStreams cross the wire); and the post-op source table in
// source-ID order, each source with its declaration (a live add may scan
// a stream declared after the worker's plan was built).
type ChurnCall struct {
	Rec     *wire.ChurnRecord
	Options rules.Options
	Sources []core.SourceSnap
}

// srcNames is the call's source table: source ID → name.
func (c *ChurnCall) srcNames() []string {
	names := make([]string, len(c.Sources))
	for i, src := range c.Sources {
		names[i] = src.Name
	}
	return names
}

// churn body: {1: the record as a one-record churn log
// (wire.AppendChurnRecord), 2: channels, 3: channelMinStreams, 4: the
// source table as a plan snapshot of sources only}; reply: groups at
// field 1.
func encodeChurnCall(c *ChurnCall) ([]byte, error) {
	var rec bytes.Buffer
	if err := wire.AppendChurnRecord(&rec, c.Rec); err != nil {
		return nil, err
	}
	srcs, err := wire.EncodePlanBytes(&core.PlanSnapshot{Sources: c.Sources})
	if err != nil {
		return nil, err
	}
	var b wire.Buffer
	b.PutBytesField(1, rec.Bytes())
	b.PutBoolField(2, c.Options.Channels)
	b.PutVarintField(3, int64(c.Options.ChannelMinStreams))
	b.PutBytesField(4, srcs)
	return b.Bytes(), nil
}

func decodeChurnCall(p []byte) (*ChurnCall, error) {
	c := &ChurnCall{}
	var recs []*wire.ChurnRecord
	r := wire.NewReader(p)
	err := r.Fields(func(field, _ int) (err error) {
		var sub []byte
		var v int64
		var snap *core.PlanSnapshot
		switch field {
		case 1:
			if sub, err = r.Bytes(); err == nil {
				recs, err = wire.ReadChurnLog(bytes.NewReader(sub))
			}
		case 2:
			v, err = r.Varint()
			c.Options.Channels = v != 0
		case 3:
			c.Options.ChannelMinStreams, err = r.Int()
		case 4:
			if sub, err = r.Bytes(); err == nil {
				if snap, err = wire.DecodePlanBytes(sub); err == nil {
					c.Sources = snap.Sources
				}
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("%w: churn call with %d records", wire.ErrCorrupt, len(recs))
	}
	c.Rec = recs[0]
	return c, nil
}

func encodeGroupsReply(groups []mop.GroupRef) []byte {
	var b wire.Buffer
	putGroups(&b, 1, groups)
	return b.Bytes()
}

func decodeGroupsReply(p []byte) ([]mop.GroupRef, error) {
	r := wire.NewReader(p)
	var groups []mop.GroupRef
	err := r.Fields(func(field, _ int) error {
		if field != 1 {
			return nil
		}
		g, err := readGroup(r)
		groups = append(groups, g)
		return err
	})
	if err != nil {
		return nil, err
	}
	return groups, nil
}

// export body: {1: opID, 2: side, 3: keyAttr}; reply {1: payloadBytes}
// (absent/empty payload = the side stored nothing).
// import body: {1: opID, 2: payloadBytes}; reply empty.
// histogram body: {1: opID, 2: side, 3: keyAttr}; reply {1: keys, 2:
// counts}.
func encodeSideCall(opID, side, keyAttr int) []byte {
	var b wire.Buffer
	b.PutVarintField(1, int64(opID))
	b.PutVarintField(2, int64(side))
	b.PutVarintField(3, int64(keyAttr))
	return b.Bytes()
}

func decodeSideCall(p []byte) (opID, side, keyAttr int, err error) {
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			opID, err = r.Int()
		case 2:
			side, err = r.Int()
		case 3:
			keyAttr, err = r.Int()
		}
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return opID, side, keyAttr, nil
}

func encodeBytesField1(p []byte) []byte {
	var b wire.Buffer
	b.PutBytesField(1, p)
	return b.Bytes()
}

func decodeBytesField1(p []byte) (out []byte, err error) {
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		if field == 1 {
			out, err = r.Bytes()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func encodeImportCall(opID int, payloadBytes []byte) []byte {
	var b wire.Buffer
	b.PutVarintField(1, int64(opID))
	b.PutBytesField(2, payloadBytes)
	return b.Bytes()
}

func decodeImportCall(p []byte) (opID int, payloadBytes []byte, err error) {
	r := wire.NewReader(p)
	err = r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			opID, err = r.Int()
		case 2:
			payloadBytes, err = r.Bytes()
		}
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	return opID, payloadBytes, nil
}

func encodeHistReply(h map[int64]int64) []byte {
	// Deterministic order keeps retried replies byte-identical.
	keys := slices.Sorted(maps.Keys(h))
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = h[k]
	}
	var b wire.Buffer
	b.PutInt64sField(1, keys)
	b.PutInt64sField(2, counts)
	return b.Bytes()
}

func decodeHistReply(p []byte) (map[int64]int64, error) {
	r := wire.NewReader(p)
	var keys, counts []int64
	err := r.Fields(func(field, _ int) (err error) {
		switch field {
		case 1:
			keys, err = r.Int64s()
		case 2:
			counts, err = r.Int64s()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(keys) != len(counts) {
		return nil, fmt.Errorf("%w: histogram reply: %d keys, %d counts", wire.ErrCorrupt, len(keys), len(counts))
	}
	out := make(map[int64]int64, len(keys))
	for i, k := range keys {
		out[k] = counts[i]
	}
	return out, nil
}

// stats reply body: {1*: counter{1: name, 2: value}, 2*: gauge{1: name,
// 2: value}, 3*: hist{1: name, 2: count, 3: sum, 4: buckets}}. Series are
// emitted in sorted-name order so retried calls served from the reply
// cache are byte-identical to a fresh encode.
func encodeStatsReply(s *obs.Snapshot) []byte {
	var b wire.Buffer
	for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
		b.PutMsgField(1, func(sub *wire.Buffer) {
			sub.PutStringField(1, name)
			sub.PutVarintField(2, s.Counters[name])
		})
	}
	for _, name := range slices.Sorted(maps.Keys(s.Gauges)) {
		b.PutMsgField(2, func(sub *wire.Buffer) {
			sub.PutStringField(1, name)
			sub.PutVarintField(2, s.Gauges[name])
		})
	}
	for _, name := range slices.Sorted(maps.Keys(s.Hists)) {
		h := s.Hists[name]
		b.PutMsgField(3, func(sub *wire.Buffer) {
			sub.PutStringField(1, name)
			sub.PutVarintField(2, h.Count)
			sub.PutVarintField(3, h.Sum)
			sub.PutInt64sField(4, h.Buckets[:])
		})
	}
	return b.Bytes()
}

func decodeStatsReply(p []byte) (*obs.Snapshot, error) {
	s := obs.NewSnapshot()
	r := wire.NewReader(p)
	err := r.Fields(func(field, _ int) error {
		if field < 1 || field > 3 {
			return nil
		}
		sub, err := r.Msg()
		if err != nil {
			return err
		}
		// A counter or gauge is {1: name, 2: value}; a histogram also has
		// 3: sum and 4: buckets.
		var name string
		var d obs.HistData
		var buckets []int64
		isHist := field == 3
		err = sub.Fields(func(f, _ int) (err error) {
			switch {
			case f == 1:
				name, err = sub.String()
			case f == 2:
				d.Count, err = sub.Varint()
			case f == 3 && isHist:
				d.Sum, err = sub.Varint()
			case f == 4 && isHist:
				buckets, err = sub.Int64s()
			}
			return err
		})
		if err != nil {
			return err
		}
		switch field {
		case 1:
			s.AddCounter(name, d.Count)
		case 2:
			s.SetGauge(name, d.Count)
		case 3:
			// A peer with a different bucket count still merges: extra
			// buckets collapse into the last one, missing buckets stay zero.
			for i, v := range buckets {
				d.Buckets[min(i, obs.NumBuckets-1)] += v
			}
			s.AddHist(name, d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
