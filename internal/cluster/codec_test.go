package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// encodeBatch encodes one batch body into a buffer of its own.
func encodeBatch(seq int64, entries []Entry) []byte {
	var b wire.Buffer
	putBatch(&b, seq, entries)
	return b.Bytes()
}

// encodeCall encodes one call message around an encoded body.
func encodeCall(callID int64, op byte, body []byte) []byte {
	return marshal(&call{ID: callID, Op: op, Body: body}, callFields)
}

// decodeReply decodes one reply message.
func decodeReply(p []byte) (reply, error) {
	var m reply
	err := wire.Unmarshal(p, &m, replyFields)
	return m, err
}

// entriesEqual compares decoded batches; nil and empty slices are equal.
func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Src != y.Src {
			return false
		}
		if !slices.Equal(x.Run.TS, y.Run.TS) || len(x.Run.Cols) != len(y.Run.Cols) {
			return false
		}
		for c := range x.Run.Cols {
			if !slices.Equal(x.Run.Cols[c], y.Run.Cols[c]) {
				return false
			}
		}
	}
	return true
}

// testRun builds a run of n rows and arity columns with values spread over
// the whole int64 range, extremes included.
func testRun(n, arity int) *Run {
	run := &Run{TS: make([]int64, n), Cols: make([][]int64, arity)}
	for i := range run.TS {
		run.TS[i] = int64(1000 + i)
	}
	for a := range run.Cols {
		run.Cols[a] = make([]int64, n)
		for i := range run.Cols[a] {
			switch (i + a) % 4 {
			case 0:
				run.Cols[a][i] = math.MinInt64
			case 1:
				run.Cols[a][i] = math.MaxInt64
			default:
				run.Cols[a][i] = int64(i*a) - 77
			}
		}
	}
	return run
}

// rowRun is a run of one row: the run the shard router builds for a
// pushed row whose source differs from the previous row's.
func rowRun(ts int64, vals ...int64) *Run {
	run := &Run{TS: []int64{ts}, Cols: make([][]int64, len(vals))}
	for a, v := range vals {
		run.Cols[a] = []int64{v}
	}
	return run
}

// Client.Replay sends a stretch of rows of one source and width as one
// run, as the shard router does; a source or width change starts a new
// run, and a run already given passes through in order.
func TestRowsAsRunsMergesStretches(t *testing.T) {
	given := testRun(2, 3)
	got := rowsAsRuns([]Entry{
		{Src: 0, TS: 1, Vals: []int64{1, 2}},
		{Src: 0, TS: 2, Vals: []int64{3, 4}},
		{Src: 1, TS: 3, Vals: []int64{5, 6}},
		{Src: 1, TS: 4, Vals: []int64{7}},
		{Src: 2, Run: given},
		{Src: 0, TS: 5, Vals: []int64{8, 9}},
	})
	want := []Entry{
		{Src: 0, Run: &Run{TS: []int64{1, 2}, Cols: [][]int64{{1, 3}, {2, 4}}}},
		{Src: 1, Run: rowRun(3, 5, 6)},
		{Src: 1, Run: rowRun(4, 7)},
		{Src: 2, Run: given},
		{Src: 0, Run: rowRun(5, 8, 9)},
	}
	if !entriesEqual(got, want) || got[3].Run != given {
		t.Fatalf("rowsAsRuns: got %d entries, want %d: %+v", len(got), len(want), got)
	}
	runs := []Entry{{Src: 2, Run: given}}
	if out := rowsAsRuns(runs); &out[0] != &runs[0] {
		t.Fatal("a batch of runs alone was copied")
	}
}

func codecBatches() [][]Entry {
	return [][]Entry{
		nil,
		{{Src: 0, Run: rowRun(5, 1, 2, 3)}},
		{ // one-row runs of mixed arity, no values, extremes
			{Src: 1, Run: rowRun(-3, math.MinInt64, math.MaxInt64)},
			{Src: 1, Run: rowRun(0)},
			{Src: 2, Run: rowRun(math.MaxInt64, 0)},
			{Src: math.MaxInt32, Run: rowRun(math.MinInt64, -1, 1, -64, 64, 1<<40)},
		},
		{{Src: 3, Run: testRun(1, 0)}},                           // run of 0 columns
		{{Src: 0, Run: testRun(1, 10)}},                          // run of 1 row
		{{Src: 1, Run: testRun(256, 10)}},                        // run of 256 rows
		{{Src: 0, Run: testRun(0, 3)}, {Src: 4, Run: rowRun(9)}}, // an empty run
		{ // runs keep their order
			{Src: 0, Run: rowRun(1, 7)},
			{Src: 1, Run: testRun(5, 2)},
			{Src: 1, Run: rowRun(2, 8, 9)},
			{Src: 0, Run: testRun(3, 4)},
			{Src: 0, Run: testRun(300, 1)},
		},
	}
}

// TestBatchCodecRoundTrip: every batch shape decodes back equal, through
// one decoder reused across batches. A row in the form protocol version 3
// sent (field 2) is an unknown field now, skipped: that is why version 4
// refuses older peers.
func TestBatchCodecRoundTrip(t *testing.T) {
	var d batch
	for i, batch := range codecBatches() {
		seq, got, err := d.decode(encodeBatch(int64(i+1), batch))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if seq != int64(i+1) || !entriesEqual(got, batch) {
			t.Fatalf("batch %d: decoded seq %d %+v, want %+v", i, seq, got, batch)
		}
	}
	var b wire.Buffer
	b.PutVarintField(1, 7)
	b.PutMsgField(2, func(b *wire.Buffer) {
		b.PutVarintField(1, 0)
		b.PutVarintField(2, 10)
		b.PutInt64sField(3, []int64{1, 2})
	})
	if seq, got, err := d.decode(b.Bytes()); err != nil || seq != 7 || len(got) != 0 {
		t.Fatalf("version 3 row: seq %d, %d entries, %v; want seq 7 and the row skipped", seq, len(got), err)
	}
}

// The decoder rejects a source id outside [0, MaxInt32] and a run whose
// columns and timestamps differ in length, with wire.ErrCorrupt.
func TestBatchDecodeRejects(t *testing.T) {
	for name, body := range corruptBatchBodies() {
		var d batch
		if _, _, err := d.decode(body); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want wire.ErrCorrupt", name, err)
		}
	}
}

// corruptBatchBodies are batch bodies a worker must reject, by name.
func corruptBatchBodies() map[string][]byte {
	run := func(src int64, ts []int64, cols ...[]int64) []byte {
		var b wire.Buffer
		b.PutVarintField(1, 1)
		putRun(&b, src, ts, cols)
		return b.Bytes()
	}
	return map[string][]byte{
		"run source -1":           run(-1, []int64{1}, []int64{2}),
		"run source 2^31":         run(1<<31, []int64{1}, []int64{2}),
		"run source MinInt64":     run(math.MinInt64, []int64{1}, []int64{2}),
		"run source MaxInt64":     run(math.MaxInt64, []int64{1}),
		"run second column short": run(0, []int64{1, 2}, []int64{5, 6}, []int64{7}),
		"run column short":        run(0, []int64{1, 2}, []int64{5}),
		"run column long":         run(0, []int64{1}, []int64{5, 6}),
		"run column without ts":   run(0, nil, []int64{5}),
		"run second column long":  run(0, []int64{1}, []int64{5}, []int64{6, 7}),
	}
}

// putRun writes a run message field by field, so tests can build runs
// encodeBatch would never produce.
func putRun(b *wire.Buffer, src int64, ts []int64, cols [][]int64) {
	b.PutMsgField(3, func(b *wire.Buffer) {
		b.PutVarintField(1, src)
		if ts != nil {
			b.PutBitPackedField(2, ts, nil)
		}
		for _, col := range cols {
			b.PutBitPackedField(3, col, nil)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	for i, batch := range codecBatches() {
		// Minimizing a new input costs time quadratic in its length, so
		// the long runs stay out of the seeds.
		if p := encodeBatch(int64(i), batch); len(p) <= 512 {
			f.Add(p)
		}
	}
	for _, body := range corruptBatchBodies() {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{0x1a, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Fresh decoders: state carried between inputs would make coverage
		// depend on input order, which stalls input minimization.
		var d, d2 batch
		seq, entries, err := d.decode(raw)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap wire.ErrCorrupt", err)
			}
			return
		}
		seq2, again, err := d2.decode(encodeBatch(seq, entries))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if seq2 != seq || !entriesEqual(again, entries) {
			t.Fatalf("re-encoded batch decodes to seq %d %+v, want seq %d %+v", seq2, again, seq, entries)
		}
	})
}

// FuzzDecodeControl fuzzes every control-message decoder (controlCodecs):
// decoding never panics, every error wraps wire.ErrCorrupt, and a message
// that decodes re-encodes and decodes back to an equal value.
func FuzzDecodeControl(f *testing.F) {
	codecs := controlCodecs()
	for i, c := range codecs {
		for _, seed := range c.seeds {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, raw []byte) {
		c := codecs[int(which)%len(codecs)]
		v, enc, err := c.roundTrip(raw)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%s: decode error %v does not wrap wire.ErrCorrupt", c.name, err)
			}
			return
		}
		again, _, err := c.roundTrip(enc)
		if err != nil {
			t.Fatalf("%s: re-encoded message does not decode: %v", c.name, err)
		}
		if !sameDecoded(reflect.ValueOf(v), reflect.ValueOf(again)) {
			t.Fatalf("%s: re-encoded message decodes to %+v, want %+v", c.name, again, v)
		}
	})
}

// sameDecoded reports whether two decoded values are equal, counting a nil
// and an empty slice or map as equal: a decoder yields nil for an absent
// field, and an encoder may write that field empty.
func sameDecoded(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameDecoded(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameDecoded(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameDecoded(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if w := b.MapIndex(k); !w.IsValid() || !sameDecoded(a.MapIndex(k), w) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestWorkerRejectsCorruptCalls sends a live worker calls it must refuse.
// Each comes back as a typed error (the reply is marked corrupt) or, for
// an undecodable call frame, a dropped connection; the worker keeps
// serving, and the full workload then replays to the reference counts.
func TestWorkerRejectsCorruptCalls(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	rc, ack := dialRaw(t, lis, freshHello(w))
	if ack.Err != "" {
		t.Fatal(ack.Err)
	}
	for name, body := range corruptBatchBodies() {
		rc.callID++
		m, err := decodeReply(rc.callRaw(rc.callID, opBatch, body))
		if err != nil || m.Err == "" || !m.Corrupt {
			t.Fatalf("%s: reply err=%v errStr=%q corrupt=%v, want a corrupt-input error", name, err, m.Err, m.Corrupt)
		}
	}

	// Opcode 257 would truncate to opBatch; the worker must refuse the
	// frame instead of applying the batch.
	var frame wire.Buffer
	frame.PutVarintField(1, rc.callID+1)
	frame.PutVarintField(2, 257)
	frame.PutBytesField(3, encodeBatch(1, w.batches[0]))
	if err := rc.fc.WriteFrame(frameCall, frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.fc.ReadFrame(); err == nil {
		t.Fatal("worker answered a call with opcode 257")
	}
	h := freshHello(w)
	h.Resume = true
	lastID := rc.callID + 1
	rc, ack = dialRaw(t, lis, h)
	if ack.Err != "" || ack.LastApplied != 0 {
		t.Fatalf("resume after opcode 257: err %q, last applied %d; want the batch unapplied", ack.Err, ack.LastApplied)
	}
	rc.callID = lastID // the worker skips call IDs below its last one

	for i, batch := range w.batches {
		if errStr, _ := rc.call(opBatch, encodeBatch(int64(i+1), batch)); errStr != "" {
			t.Fatalf("batch %d: %s", i+1, errStr)
		}
	}
	if err := rc.drainEquals(w); err != nil {
		t.Fatal(err)
	}
}

// A client sees a worker's corrupt-input rejection as wire.ErrCorrupt.
func TestClientCorruptErrorTyped(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	c, err := Dial(Config{
		Dial:     func() (net.Conn, error) { return lis.Dial() },
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: 2 * time.Second, HeartbeatInterval: -1,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Replay(1, []Entry{{Src: -1, TS: 1, Vals: []int64{1}}})
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("Replay of source -1: %v, want wire.ErrCorrupt", err)
	}
	if err := c.Replay(1, w.batches[0]); err != nil {
		t.Fatalf("valid batch after a rejected one: %v", err)
	}
}

// Replay range-checks source ids, negative ones included, as a returned
// error rather than a panic.
func TestReplayRejectsUnknownSource(t *testing.T) {
	w := buildWorkload(t)
	_, eng, err := buildEngine(w.planBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int32{-1, int32(len(w.srcNames)), math.MaxInt32} {
		for _, rows := range []int{1, 2} {
			if err := ReplayBatch(eng, w.srcNames, []Entry{{Src: src, Run: testRun(rows, 10)}}); err == nil || !strings.Contains(err.Error(), "source id") {
				t.Fatalf("source %d (%d rows): %v, want a source-id error", src, rows, err)
			}
		}
	}
}

// Older peers misread calls: a protocol version 1 worker skips column
// runs as an unknown field, a version 2 worker reads bit-packed columns
// as varints, a version 3 coordinator sends rows in a field a version 4
// worker skips, a version 4 worker expects a plan snapshot and a delta
// where a churn call holds a record, and a version 5 worker reads the
// churn call's record as a churn log and its sources as a plan snapshot.
// Neither side accepts an older peer: its hello is refused by the worker,
// and a worker acknowledging it fails the client's Dial.
func TestHandshakeRefusesOlderVersions(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	for proto := 1; proto < ProtoVersion; proto++ {
		h := freshHello(w)
		h.Proto = proto
		if _, ack := dialRaw(t, lis, h); !strings.Contains(ack.Err, fmt.Sprintf("protocol version %d", proto)) {
			t.Fatalf("v%d hello: ack error %q, want a protocol-version refusal", proto, ack.Err)
		}
		rc, ack := dialRaw(t, lis, freshHello(w))
		if ack.Err != "" {
			t.Fatalf("v%d hello after a v%d one: %s", ProtoVersion, proto, ack.Err)
		}
		if errStr, _ := rc.call(opBatch, encodeBatch(1, w.batches[0])); errStr != "" {
			t.Fatal(errStr)
		}
		rc.fc.Close() // the worker serves one connection at a time

		old := transport.NewPipeListener()
		go func() {
			nc, err := old.Accept()
			if err != nil {
				return
			}
			fc := transport.NewConn(nc, 0)
			defer fc.Close()
			if _, _, err := fc.ReadFrame(); err != nil {
				return
			}
			fc.WriteFrame(frameHelloAck, marshal(&helloAck{Proto: proto, BootID: 7}, helloAckFields))
			fc.ReadFrame() // hold the link until the client hangs up
		}()
		_, err := Dial(Config{
			Dial:     func() (net.Conn, error) { return old.Dial() },
			ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
			CallTimeout: 2 * time.Second, HeartbeatInterval: -1,
		}, w.srcNames)
		old.Close()
		if !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("v%d worker: Dial error %v, want ErrBadHandshake", proto, err)
		}
	}
}

// BenchmarkBatchCodec encodes and decodes one W2-shaped WAL batch, 128
// rows of 10 attributes carried as one column run. It encodes into one
// reused buffer, as a Client does, so it reports the steady state.
func BenchmarkBatchCodec(b *testing.B) {
	const rows = 128
	events := workload.DefaultParams().GenStreams(rows)
	arity := len(events[0].Tuple.Vals)
	run := &Run{TS: make([]int64, rows), Cols: make([][]int64, arity)}
	for a := range run.Cols {
		run.Cols[a] = make([]int64, rows)
	}
	for i, ev := range events {
		run.TS[i] = ev.Tuple.TS
		for a, v := range ev.Tuple.Vals {
			run.Cols[a][i] = v
		}
	}
	entries := []Entry{{Src: 0, Run: run}}
	b.Run("run", func(b *testing.B) {
		var buf wire.Buffer
		var d batch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			putBatch(&buf, int64(i), entries)
			if _, _, err := d.decode(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len())/rows, "B/row")
	})
}

// randomColumn draws n values of one of several shapes: a narrow domain
// like W2's attributes, near-consecutive timestamps, all equal, negative,
// the whole int64 range, or the two extremes side by side.
func randomColumn(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	shape := rng.Intn(6)
	base := rng.Int63() - rng.Int63()
	for i := range vs {
		switch shape {
		case 0:
			vs[i] = rng.Int63n(1000)
		case 1:
			vs[i] = base + int64(i) + rng.Int63n(4)
		case 2:
			vs[i] = base
		case 3:
			vs[i] = -1 - rng.Int63n(1<<uint(rng.Intn(63)))
		case 4:
			vs[i] = int64(rng.Uint64())
		default:
			vs[i] = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
		}
	}
	return vs
}

// TestBatchRunRoundTripSelected decodes what encodeBatch wrote for random
// runs under random selections and compares every value with the run's
// selected rows. The lengths straddle the 64-row selection words and the
// 128-value blocks.
func TestBatchRunRoundTripSelected(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var d batch
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 700} {
		for range 8 {
			arity := rng.Intn(4)
			run := &Run{TS: randomColumn(rng, n), Cols: make([][]int64, arity)}
			for a := range run.Cols {
				run.Cols[a] = randomColumn(rng, n)
			}
			words := (n + 63) / 64
			full := make([]uint64, words)
			for i := range n {
				full[i>>6] |= 1 << uint(i&63)
			}
			sparse := make([]uint64, words)
			sparse[rng.Intn(words)] = 1 << uint(rng.Intn(64))
			for i := range sparse {
				sparse[i] &= full[i]
			}
			random := make([]uint64, words)
			for i := range random {
				random[i] = rng.Uint64() & full[i]
			}
			for _, sel := range [][]uint64{nil, make([]uint64, words), full, sparse, random} {
				want := &Run{Cols: make([][]int64, arity)}
				for i := range n {
					if sel != nil && sel[i>>6]&(1<<uint(i&63)) == 0 {
						continue
					}
					want.TS = append(want.TS, run.TS[i])
					for a, col := range run.Cols {
						want.Cols[a] = append(want.Cols[a], col[i])
					}
				}
				selected := &Run{TS: run.TS, Cols: run.Cols, Sel: sel}
				seq, got, err := d.decode(encodeBatch(3, []Entry{{Src: 1, Run: selected}}))
				if err != nil {
					t.Fatalf("%d rows, %d selected: %v", n, len(want.TS), err)
				}
				if seq != 3 || !entriesEqual(got, []Entry{{Src: 1, Run: want}}) {
					t.Fatalf("%d rows, %d selected: decoded run differs from the selected rows", n, len(want.TS))
				}
			}
		}
	}
}

// TestCallFrameInPlace holds a call frame encoded in place, the form a
// Client sends, to the call message of the separately encoded batch
// framed by transport.AppendFrame, byte for byte, and requires a reused
// buffer to encode it without allocating.
func TestCallFrameInPlace(t *testing.T) {
	var buf wire.Buffer
	for i, batch := range codecBatches() {
		seq := int64(i + 1)
		body := func(b *wire.Buffer) { putBatch(b, seq, batch) }
		got := encodeCallFrame(&buf, 40+seq, opBatch, body)
		want := transport.AppendFrame(nil, frameCall, encodeCall(40+seq, opBatch, encodeBatch(seq, batch)))
		if !slices.Equal(got, want) {
			t.Fatalf("batch %d: in-place call frame differs from the framed call message", i)
		}
		if allocs := testing.AllocsPerRun(10, func() { encodeCallFrame(&buf, 40+seq, opBatch, body) }); allocs != 0 {
			t.Fatalf("batch %d: %v allocs per call frame", i, allocs)
		}
	}
}

// A histogram reply whose key and count lists differ in length is corrupt.
func TestHistReplyMismatchCorrupt(t *testing.T) {
	var b wire.Buffer
	b.PutInt64sField(1, []int64{1, 2})
	b.PutInt64sField(2, []int64{5})
	var h hist
	if err := wire.Unmarshal(b.Bytes(), &h, histFields); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("2 keys, 1 count: %v, want wire.ErrCorrupt", err)
	}
}

// TestEncodeBatchSelectedRun holds a run that selects its rows by bitmap
// to the run of those rows alone: the same batch bytes (so a worker sees
// no difference), the same row count, a decoded run with no selection,
// and no allocation beyond what encoding the gathered run costs. The
// selections are random over 1–700 rows, plus the empty and full ones.
func TestEncodeBatchSelectedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d batch
	for n := 1; n <= 700; n += 1 + rng.Intn(9) {
		run := testRun(n, 3)
		sels := [][]uint64{make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)}
		for i := range n {
			sels[1][i>>6] |= 1 << uint(i&63)
		}
		for range 3 {
			sel := make([]uint64, (n+63)/64)
			for i := range n {
				if rng.Intn(4) != 0 {
					sel[i>>6] |= 1 << uint(i&63)
				}
			}
			sels = append(sels, sel)
		}
		for _, sel := range sels {
			gathered := &Run{Cols: make([][]int64, len(run.Cols))}
			for i := range n {
				if sel[i>>6]&(1<<uint(i&63)) == 0 {
					continue
				}
				gathered.TS = append(gathered.TS, run.TS[i])
				for a, col := range run.Cols {
					gathered.Cols[a] = append(gathered.Cols[a], col[i])
				}
			}
			selected := &Run{TS: run.TS, Cols: run.Cols, Sel: sel}
			batch := func(r *Run) []Entry {
				return []Entry{{Src: 2, Run: rowRun(5, 1, 2, 3)}, {Src: 1, Run: r}}
			}
			got, want := encodeBatch(9, batch(selected)), encodeBatch(9, batch(gathered))
			if !slices.Equal(got, want) {
				t.Fatalf("%d rows, %d selected: batch bytes differ from the gathered run's", n, len(gathered.TS))
			}
			if g, w := BatchRows(batch(selected)), BatchRows(batch(gathered)); g != w {
				t.Fatalf("%d rows: BatchRows %d, gathered %d", n, g, w)
			}
			_, dec, err := d.decode(got)
			if err != nil {
				t.Fatal(err)
			}
			if dec[1].Run.Sel != nil || !entriesEqual(dec, batch(gathered)) {
				t.Fatalf("%d rows: decoded batch is not the gathered run", n)
			}
			sa := testing.AllocsPerRun(5, func() { encodeBatch(9, batch(selected)) })
			ga := testing.AllocsPerRun(5, func() { encodeBatch(9, batch(gathered)) })
			if sa > ga {
				t.Fatalf("%d rows: %v allocs to encode the selected run, %v for the gathered one", n, sa, ga)
			}
		}
	}
}

// A live add crosses the wire as its churn record, not as the plan it
// leaves: the churn call for one Workload 1 add on a 250-query plan stays
// under 1 KiB, with channels on and off.
func TestChurnCallSize(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 251
	qs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []bool{false, true} {
		opt := rules.Options{Channels: channels}
		plan := core.NewPhysical(p.Catalog())
		for _, q := range qs[:250] {
			if err := plan.AddQuery(core.NewQuery(q.Name, q.Root)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rules.Optimize(plan, opt); err != nil {
			t.Fatal(err)
		}
		add := qs[250]
		if _, err := live.NewMaintainer(plan, opt).AddQuery(core.NewQuery(add.Name, add.Root)); err != nil {
			t.Fatal(err)
		}
		fp, err := wire.FingerprintPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		planBytes, err := wire.EncodePlanBytes(plan.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		body, err := wire.Marshal(&ChurnCall{
			Rec:     &wire.ChurnRecord{Op: wire.ChurnAdd, Name: add.Name, Root: add.Root, Fingerprint: fp},
			Options: opt,
			Sources: plan.Snapshot().Sources,
		}, churnCallFields)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("channels=%v: churn call %d B, post-op plan snapshot %d B", channels, len(body), len(planBytes))
		if len(body) >= 1024 {
			t.Fatalf("channels=%v: churn call is %d bytes, want < 1024", channels, len(body))
		}
	}
}
