// Package cluster puts the sharded runtime on the network: a coordinator
// process routes tuples exactly as before, but a shard's engine replica
// can live in another process (a worker, see Serve) reached over the
// framed transport (internal/transport) carrying internal/wire payloads.
//
// Protocol shape:
//
//   - A connection starts with a handshake: the coordinator sends Hello
//     (protocol version, shard index/count, cluster epoch, source-name
//     table, and at Dial the plan snapshot); the worker validates it,
//     builds its engine for a fresh hello or keeps it for a resume, and
//     answers HelloAck (its boot ID, last applied WAL seq, and state-group
//     table). A version or shard-count mismatch, and a resume of a replica
//     the worker does not hold, are refused in the ack and are terminal
//     for the client.
//
//   - Every message is declared once (helloFields, callFields, ...), and
//     encoding and decoding both walk the declaration (wire.Codec).
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
// plan snapshot and a delta under the same opcode. Version 6 writes the
// churn call's record and sources as messages of their own, where version
// 5 wrapped them in a one-record churn log and a plan snapshot. Version 7
// checks a churn call against core.(*Physical).Fingerprint, a walk of the
// plan, where version 6 hashed the plan snapshot's encoding: the two
// disagree on every plan.
const ProtoVersion = 7

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
// The shard router builds a run of its own for the rows of Push calls,
// appending each row to its destination shard's open run of the row's
// source; for a PushColumns call it gives each destination
// shard a run that shares the pushed TS and Cols arrays and selects that
// shard's rows, so those arrays stay referenced until every shard's WAL
// has pruned its run. Runs held in a WAL are never mutated, so a
// redelivered batch re-encodes to the same bytes.
type Run struct {
	TS   []int64
	Cols [][]int64
	Sel  []uint64
	slab []int64 // a decoded run's timestamps and columns
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

// hello is the coordinator's handshake. Only a fresh handshake, the one
// Dial makes, carries the plan snapshot; a resume leaves PlanBytes empty.
type hello struct {
	Proto      int
	ShardIdx   int
	ShardCount int
	Epoch      int64
	Resume     bool
	SrcNames   []string
	PlanBytes  []byte
}

func helloFields(c *wire.Codec, h *hello) {
	wire.Varint(c, 1, &h.Proto)
	wire.Varint(c, 2, &h.ShardIdx)
	wire.Varint(c, 3, &h.ShardCount)
	wire.Varint(c, 4, &h.Epoch)
	c.Bool(5, &h.Resume)
	c.Strings(6, &h.SrcNames)
	c.Blob(7, &h.PlanBytes)
}

// helloAck is the worker's handshake answer.
type helloAck struct {
	Proto       int
	BootID      int64
	LastApplied int64
	Err         string
	Groups      []mop.GroupRef
}

func helloAckFields(c *wire.Codec, a *helloAck) {
	wire.Varint(c, 1, &a.Proto)
	wire.Varint(c, 2, &a.BootID)
	wire.Varint(c, 3, &a.LastApplied)
	c.String(4|wire.OmitEmpty, &a.Err)
	wire.Msgs(c, 5, &a.Groups, groupFields)
}

func groupFields(c *wire.Codec, g *mop.GroupRef) {
	wire.Varint(c, 1, &g.OpID)
	c.Ints(2, &g.OpIDs)
	c.Ints(3, &g.Sides)
}

// groupsFields declares the group table a churn call replies with.
func groupsFields(c *wire.Codec, groups *[]mop.GroupRef) { wire.Msgs(c, 1, groups, groupFields) }

// call is one RPC: a client-chosen call ID, the opcode, and the body. An
// encoder given put writes the body in place with it.
type call struct {
	ID   int64
	Op   byte
	Body []byte
	put  func(*wire.Buffer)
}

func callFields(c *wire.Codec, m *call) {
	wire.Varint(c, 1, &m.ID)
	wire.VarintIn(c, 2, &m.Op, 0, math.MaxUint8, "opcode")
	c.Body(3, &m.Body, m.put)
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
// written in place by body (see encodeFrame).
func encodeCallFrame(b *wire.Buffer, callID int64, op byte, body func(*wire.Buffer)) []byte {
	return encodeFrame(b, frameCall, func(b *wire.Buffer) {
		callFields(b, &call{ID: callID, Op: op, put: body})
	})
}

// reply is the answer to one call. Corrupt marks an error that rejected
// undecodable input (wire.ErrCorrupt). An encoder given put writes the
// body in place with it.
type reply struct {
	ID      int64
	Err     string
	Body    []byte
	Corrupt bool
	put     func(*wire.Buffer)
}

func replyFields(c *wire.Codec, m *reply) {
	wire.Varint(c, 1, &m.ID)
	c.String(2|wire.OmitEmpty, &m.Err)
	c.Body(3, &m.Body, m.put)
	c.Bool(4|wire.OmitEmpty, &m.Corrupt)
}

// putReply writes the reply to call callID into b, its body written in
// place by body, which returns the call's error. A successful reply's body
// stays where it was written; an error reply is written again with the
// body behind the error text, so the fields keep their order.
func putReply(b *wire.Buffer, callID int64, body func(*wire.Buffer) error) {
	at := b.Len()
	var callErr error
	n := 0
	replyFields(b, &reply{ID: callID, put: func(b *wire.Buffer) {
		start := b.Len()
		callErr = body(b)
		n = b.Len() - start
	}})
	if callErr == nil {
		return
	}
	raw := bytes.Clone(b.Bytes()[b.Len()-n:])
	b.Truncate(at)
	replyFields(b, &reply{ID: callID, Err: callErr.Error(), Body: raw, Corrupt: errors.Is(callErr, wire.ErrCorrupt)})
}

// batch is a WAL batch: its seq and its entries, each a column run.
// Decoding into a batch reuses its storage from one batch to the next:
// the entry slice, each entry's run, and the run's slab, which holds its
// timestamps and columns. A decoded batch is valid until the next decode.
// Reusing the slabs is sound only because engine.PushColumnsSel borrows a
// run's columns just until it returns.
type batch struct {
	codec   wire.Codec // decoding state
	seq     int64
	entries []Entry
}

// batch body: 1=seq 3=run (repeated), runs in entry order; reply
// completedFields. Field 2 carried a row until protocol version 4 and is
// not reused.
func batchFields(c *wire.Codec, b *batch) {
	wire.Varint(c, 1, &b.seq)
	wire.Msgs(c, 3, &b.entries, runFields)
}

// run: 1=src 2=ts 3=column (repeated). The timestamps and each column are
// a bit-packed column (wire.PutBitPackedField: blocks of 128 values, each
// a minimum, a bit width and the values less the minimum in that many
// bits). A run carries only its selected rows, packed straight from the
// selection, so a decoded run has a nil Sel. A decoded source id outside
// [0, MaxInt32], or a run whose columns differ in length from its
// timestamps, is corrupt. A decoder reuses the run an entry of an earlier
// batch left.
func runFields(c *wire.Codec, en *Entry) {
	wire.Init(c, en, func(en *Entry) { *en = Entry{Run: en.Run.reuse()} })
	wire.VarintIn(c, 1, &en.Src, 0, math.MaxInt32, "source id")
	wire.Within(c, &en.Run, func(c *wire.Codec, r *Run) {
		c.Column(2, &r.TS, r.Sel, &r.slab)
		c.Columns(3, &r.Cols, r.Sel, &r.slab)
	})
	wire.Check(c, en, func(en *Entry) error {
		for a, col := range en.Run.Cols {
			if len(col) != len(en.Run.TS) {
				return fmt.Errorf("%w: run column %d has %d rows, %d timestamps", wire.ErrCorrupt, a, len(col), len(en.Run.TS))
			}
		}
		return nil
	})
}

// reuse empties r for a decode, keeping its storage; a nil r is a new run.
func (r *Run) reuse() *Run {
	if r == nil {
		return &Run{}
	}
	clear(r.Cols)
	r.TS, r.Cols, r.slab = nil, r.Cols[:0], r.slab[:0]
	return r
}

// putBatch writes a batch body into b.
func putBatch(b *wire.Buffer, seq int64, entries []Entry) {
	batchFields(b, &batch{seq: seq, entries: entries})
}

// decode decodes one batch body into b.
func (b *batch) decode(p []byte) (seq int64, entries []Entry, err error) {
	b.seq, b.entries = 0, b.entries[:0]
	if err := wire.Decode(&b.codec, p, b, batchFields); err != nil {
		return 0, nil, err
	}
	return b.seq, b.entries, nil
}

// drainReply is the drain call's answer: per-query result counts, their
// total, and the sticky first replay error (empty when none).
type drainReply struct {
	Counts   []int64
	Total    int64
	FirstErr string
}

func drainFields(c *wire.Codec, d *drainReply) {
	c.Int64s(1, &d.Counts)
	wire.Varint(c, 2, &d.Total)
	c.String(3|wire.OmitEmpty, &d.FirstErr)
}

// ChurnCall is one live add or remove as a worker replays it on its own
// plan: the churn record, whose fingerprint is the coordinator's post-op
// plan's; the rule options the plan is maintained under (Channels crosses
// the wire); and the post-op source table in
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

// churn body: 1=the record (wire.ChurnRecordFields) 2=channels 4=one
// source of the source table (wire.SourceFields), repeated; field 3 (a
// channel stream threshold) is retired and skipped on read; reply: groups
// (groupsFields).
func churnCallFields(c *wire.Codec, m *ChurnCall) {
	wire.Ptr(c, 1, &m.Rec, wire.ChurnRecordFields)
	c.Bool(2, &m.Options.Channels)
	wire.Msgs(c, 4, &m.Sources, wire.SourceFields)
	wire.Check(c, m, func(m *ChurnCall) error {
		if m.Rec == nil {
			return fmt.Errorf("%w: churn call without a record", wire.ErrCorrupt)
		}
		return nil
	})
}

// sideCall names one side of one state group: the export and histogram
// calls' body. Import's body names the group and carries the payload, the
// export reply the payload alone. An encoder given pl writes it in place
// as the payload's bytes.
type sideCall struct {
	OpID, Side, KeyAttr int
	Payload             []byte
	pl                  *mop.StatePayload
}

// sideCallFields declares the export and histogram calls' body.
func sideCallFields(c *wire.Codec, m *sideCall) {
	wire.Varint(c, 1, &m.OpID)
	wire.Varint(c, 2, &m.Side)
	wire.Varint(c, 3, &m.KeyAttr)
}

// importCallFields declares the import call's body; its reply is empty.
func importCallFields(c *wire.Codec, m *sideCall) {
	wire.Varint(c, 1, &m.OpID)
	payloadField(c, 2, m)
}

// exportReplyFields declares the export reply: the payload's bytes,
// empty when the side stored nothing.
func exportReplyFields(c *wire.Codec, m *sideCall) { payloadField(c, 1, m) }

// payloadField declares m's payload, which an encoder given m.pl writes in
// place.
func payloadField(c *wire.Codec, field int, m *sideCall) {
	var put func(*wire.Buffer)
	if m.pl != nil {
		put = func(b *wire.Buffer) { wire.PutPayload(b, m.pl) }
	}
	c.Body(field, &m.Payload, put)
}

// completedFields declares the batch reply: the last WAL seq the worker
// applied.
func completedFields(c *wire.Codec, seq *int64) { wire.Varint(c, 1, seq) }

// hist is a keyed-state histogram as the histogram call's reply carries
// it: its keys in ascending order and each key's count.
type hist struct {
	keys, counts []int64
}

// histFields declares the histogram reply. Lists of different lengths
// are corrupt.
func histFields(c *wire.Codec, h *hist) {
	c.Int64s(1, &h.keys)
	c.Int64s(2, &h.counts)
	wire.Check(c, h, func(h *hist) error {
		if len(h.keys) != len(h.counts) {
			return fmt.Errorf("%w: histogram reply: %d keys, %d counts", wire.ErrCorrupt, len(h.keys), len(h.counts))
		}
		return nil
	})
}

// histogram is the histogram h carries.
func (h *hist) histogram() map[int64]int64 {
	out := make(map[int64]int64, len(h.keys))
	for i, k := range h.keys {
		out[k] = h.counts[i]
	}
	return out
}

// histOf is h's reply form, in key order, so a retried reply is
// byte-identical.
func histOf(h map[int64]int64) *hist {
	keys := slices.Sorted(maps.Keys(h))
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = h[k]
	}
	return &hist{keys, counts}
}

// stats is a telemetry snapshot as the stats call's reply carries it,
// each list in name order so that a retried reply served from the reply
// cache is byte-identical to a fresh encode.
type stats struct {
	counters, gauges, hists []series
}

// series is one named counter, gauge (Count is its value) or histogram.
type series struct {
	Name    string
	Count   int64
	Sum     int64
	Buckets []int64
}

// statsFields declares the stats reply.
func statsFields(c *wire.Codec, s *stats) {
	wire.Msgs(c, 1, &s.counters, seriesFields)
	wire.Msgs(c, 2, &s.gauges, seriesFields)
	wire.Msgs(c, 3, &s.hists, histSeriesFields)
}

// seriesFields declares a counter or a gauge; histSeriesFields adds a
// histogram's sum and buckets.
func seriesFields(c *wire.Codec, s *series) {
	c.String(1, &s.Name)
	wire.Varint(c, 2, &s.Count)
}

func histSeriesFields(c *wire.Codec, s *series) {
	seriesFields(c, s)
	wire.Varint(c, 3, &s.Sum)
	c.Int64s(4, &s.Buckets)
}

// statsOf is s's reply form.
func statsOf(s *obs.Snapshot) *stats {
	values := func(m map[string]int64) (out []series) {
		for _, name := range slices.Sorted(maps.Keys(m)) {
			out = append(out, series{Name: name, Count: m[name]})
		}
		return out
	}
	out := &stats{counters: values(s.Counters), gauges: values(s.Gauges)}
	for _, name := range slices.Sorted(maps.Keys(s.Hists)) {
		h := s.Hists[name]
		out.hists = append(out.hists, series{Name: name, Count: h.Count, Sum: h.Sum, Buckets: h.Buckets[:]})
	}
	return out
}

// snapshot is the telemetry snapshot s stands for. A peer with a
// different bucket count still merges: extra buckets collapse into the
// last one, missing buckets stay zero.
func (s *stats) snapshot() *obs.Snapshot {
	out := obs.NewSnapshot()
	for _, c := range s.counters {
		out.AddCounter(c.Name, c.Count)
	}
	for _, g := range s.gauges {
		out.SetGauge(g.Name, g.Count)
	}
	for _, h := range s.hists {
		d := obs.HistData{Count: h.Count, Sum: h.Sum}
		for i, v := range h.Buckets {
			d.Buckets[min(i, obs.NumBuckets-1)] += v
		}
		out.AddHist(h.Name, d)
	}
	return out
}
