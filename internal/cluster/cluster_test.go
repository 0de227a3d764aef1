package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/live"
	"repro/internal/mop"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testWorkload builds a small multi-query workload: the encoded plan
// snapshot a worker lowers from, the source-name table, the event stream
// as WAL batches, and the reference result counts from a local engine fed
// the same events exactly once.
type testWorkload struct {
	planBytes []byte
	srcNames  []string
	batches   [][]Entry // batch i carries seq i+1
	refCounts []int64
	refTotal  int64
}

func buildWorkload(t *testing.T) *testWorkload {
	t.Helper()
	p := workload.DefaultParams()
	p.NumQueries = 60
	p.Seed = 7
	qs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	catalog := p.Catalog()
	build := func() *core.Physical {
		plan := core.NewPhysical(catalog)
		for _, q := range qs {
			if err := plan.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := rules.Optimize(plan, rules.Options{}); err != nil {
			t.Fatal(err)
		}
		return plan
	}
	planBytes, err := wire.EncodePlanBytes(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	srcNames := make([]string, 0, len(catalog))
	for name := range catalog {
		srcNames = append(srcNames, name)
	}
	sort.Strings(srcNames)
	srcID := make(map[string]int32, len(srcNames))
	for i, name := range srcNames {
		srcID[name] = int32(i)
	}

	events := p.GenStreams(2000)
	ref, err := engine.New(build())
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]Entry
	var cur []Entry
	for _, ev := range events {
		tu := ev.Tuple
		if err := ref.Push(ev.Source, tu); err != nil {
			t.Fatal(err)
		}
		cur = append(cur, Entry{Src: srcID[ev.Source], TS: int64(tu.TS), Vals: tu.Vals})
		if len(cur) == 100 {
			batches = append(batches, rowsAsRuns(cur))
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, rowsAsRuns(cur))
	}
	if ref.TotalResults() == 0 {
		t.Fatal("workload produced no results; equivalence checks are vacuous")
	}
	return &testWorkload{
		planBytes: planBytes,
		srcNames:  srcNames,
		batches:   batches,
		refCounts: ref.SnapshotCounts(),
		refTotal:  ref.TotalResults(),
	}
}

func startWorker(t *testing.T) *transport.PipeListener {
	t.Helper()
	lis := transport.NewPipeListener()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(lis, WorkerConfig{})
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	return lis
}

// rawConn speaks the protocol by hand, for tests that need to misbehave
// (duplicate seqs, replayed call IDs) below the Client's abstraction.
type rawConn struct {
	t      *testing.T
	fc     *transport.Conn
	callID int64
}

func dialRaw(t *testing.T, lis *transport.PipeListener, h *hello) (*rawConn, *helloAck) {
	t.Helper()
	nc, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	fc := transport.NewConn(nc, 0)
	t.Cleanup(func() { fc.Close() })
	if err := fc.WriteFrame(frameHello, marshal(h, helloFields)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := fc.ReadFrame()
	if err != nil || typ != frameHelloAck {
		t.Fatalf("handshake: typ=%d err=%v", typ, err)
	}
	ack := &helloAck{}
	if err := wire.Unmarshal(payload, ack, helloAckFields); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, fc: fc}, ack
}

// callRaw sends a call with an explicit ID and returns the raw reply
// payload (for byte-level reply-cache checks).
func (rc *rawConn) callRaw(callID int64, op byte, body []byte) []byte {
	rc.t.Helper()
	if err := rc.fc.WriteFrame(frameCall, encodeCall(callID, op, body)); err != nil {
		rc.t.Fatal(err)
	}
	typ, payload, err := rc.fc.ReadFrame()
	if err != nil || typ != frameReply {
		rc.t.Fatalf("reply: typ=%d err=%v", typ, err)
	}
	return append([]byte(nil), payload...)
}

// call sends a call with the next fresh ID and decodes the reply.
func (rc *rawConn) call(op byte, body []byte) (string, []byte) {
	rc.t.Helper()
	rc.callID++
	raw := rc.callRaw(rc.callID, op, body)
	m, err := decodeReply(raw)
	if err != nil || m.ID != rc.callID {
		rc.t.Fatalf("decoding reply: id=%d want %d err=%v", m.ID, rc.callID, err)
	}
	return m.Err, m.Body
}

func (rc *rawConn) drainEquals(w *testWorkload) error {
	errStr, reply := rc.call(opDrain, nil)
	if errStr != "" {
		return fmt.Errorf("drain: %s", errStr)
	}
	var d drainReply
	if err := wire.Unmarshal(reply, &d, drainFields); err != nil {
		return err
	}
	if d.FirstErr != "" {
		return fmt.Errorf("sticky replay error: %s", d.FirstErr)
	}
	if d.Total != w.refTotal {
		return fmt.Errorf("total %d, want %d", d.Total, w.refTotal)
	}
	if len(d.Counts) != len(w.refCounts) {
		return fmt.Errorf("%d counts, want %d", len(d.Counts), len(w.refCounts))
	}
	for i, c := range d.Counts {
		if c != w.refCounts[i] {
			return fmt.Errorf("query %d: %d results, want %d", i, c, w.refCounts[i])
		}
	}
	return nil
}

func freshHello(w *testWorkload) *hello {
	return &hello{
		Proto:      ProtoVersion,
		ShardIdx:   0,
		ShardCount: 1,
		Epoch:      1,
		SrcNames:   w.srcNames,
		PlanBytes:  w.planBytes,
	}
}

// TestWorkerSeqDedup feeds every WAL batch once in order — plus a
// duplicate of each batch and a re-send of its predecessor (reordered
// stale delivery), all under fresh call IDs so the seq dedup (not the
// reply cache) must absorb them. Results must match a reference engine
// that saw each event exactly once.
func TestWorkerSeqDedup(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	rc, ack := dialRaw(t, lis, freshHello(w))
	if ack.Err != "" {
		t.Fatal(ack.Err)
	}
	for i, batch := range w.batches {
		seq := int64(i + 1)
		if errStr, _ := rc.call(opBatch, encodeBatch(seq, batch)); errStr != "" {
			t.Fatalf("batch %d: %s", seq, errStr)
		}
		// Duplicate delivery of the same seq.
		if errStr, _ := rc.call(opBatch, encodeBatch(seq, batch)); errStr != "" {
			t.Fatalf("dup batch %d: %s", seq, errStr)
		}
		// Reordered stale delivery of the previous seq.
		if i > 0 {
			if errStr, _ := rc.call(opBatch, encodeBatch(seq-1, w.batches[i-1])); errStr != "" {
				t.Fatalf("stale batch %d: %s", seq-1, errStr)
			}
		}
	}
	// A gap must be rejected, not silently applied.
	gapSeq := int64(len(w.batches) + 5)
	if errStr, _ := rc.call(opBatch, encodeBatch(gapSeq, w.batches[0])); !strings.Contains(errStr, "gap") {
		t.Fatalf("gap seq accepted (err %q)", errStr)
	}
	if err := rc.drainEquals(w); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerReplyCache retries destructive export calls under their
// original call IDs: the worker must re-send the cached reply
// byte-identically instead of re-executing (a re-executed export would
// come back empty and the state would be lost).
func TestWorkerReplyCache(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	rc, ack := dialRaw(t, lis, freshHello(w))
	if ack.Err != "" {
		t.Fatal(ack.Err)
	}
	for i, batch := range w.batches {
		if errStr, _ := rc.call(opBatch, encodeBatch(int64(i+1), batch)); errStr != "" {
			t.Fatalf("batch %d: %s", i+1, errStr)
		}
	}
	if len(ack.Groups) == 0 {
		t.Fatal("no state groups; reply-cache check is vacuous")
	}
	nonEmpty := 0
	for _, g := range ack.Groups {
		for _, side := range g.Sides {
			body := marshal(&sideCall{OpID: g.OpID, Side: side, KeyAttr: -1}, sideCallFields)
			rc.callID++
			first := rc.callRaw(rc.callID, opExport, body)
			retry := rc.callRaw(rc.callID, opExport, body)
			if !bytes.Equal(first, retry) {
				t.Fatalf("group %d side %d: retried export reply differs (%d vs %d bytes)",
					g.OpID, side, len(first), len(retry))
			}
			m, err := decodeReply(first)
			if err != nil {
				t.Fatal(err)
			}
			if m.Err != "" {
				t.Fatalf("export group %d side %d: %s", g.OpID, side, m.Err)
			}
			var raw []byte
			if err := wire.Unmarshal(m.Body, &raw, exportReplyFields); err != nil {
				t.Fatal(err)
			}
			if len(raw) > 0 {
				nonEmpty++
			}
			// Put the state back so the final drain proves nothing was
			// double-exported or lost.
			if errStr, _ := rc.call(opImport, marshal(&sideCall{OpID: g.OpID, Payload: raw}, importCallFields)); errStr != "" {
				t.Fatalf("import group %d: %s", g.OpID, errStr)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every export was empty; reply-cache check is vacuous")
	}
	if err := rc.drainEquals(w); err != nil {
		t.Fatal(err)
	}
}

// TestClientRetryAcrossSevers cuts the connection at several points
// mid-stream; the Client must redial, resume, and retry without ever
// double-applying a batch.
func TestClientRetryAcrossSevers(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	fs := faultpoint.NewNetFaultSet()
	// Write 0 is the hello; each batch is one write (plus one extra hello
	// per reconnect). Sever a prefix batch, one mid-stream, and one near
	// the end.
	for _, wr := range []int{3, 9, 15} {
		fs.Add(faultpoint.NetRule{Link: "c0", Write: wr, Action: faultpoint.NetSever})
	}
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			return fs.Wrap("c0", nc), nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: 2 * time.Second, RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond,
		FailTimeout: 10 * time.Second, HeartbeatInterval: -1, Seed: 42,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, batch := range w.batches {
		if err := c.Replay(int64(i+1), batch); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	if fs.Hits("c0") != 3 {
		t.Fatalf("%d faults fired, want 3", fs.Hits("c0"))
	}
	counts, total, firstErr, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != "" {
		t.Fatalf("sticky replay error: %s", firstErr)
	}
	if total != w.refTotal {
		t.Fatalf("total %d, want %d", total, w.refTotal)
	}
	for i, got := range counts {
		if got != w.refCounts[i] {
			t.Fatalf("query %d: %d results, want %d", i, got, w.refCounts[i])
		}
	}
}

// deadlineConn counts the deadlines set on and cleared from a link.
type deadlineConn struct {
	net.Conn
	sets, clears *atomic.Int64
}

func (c deadlineConn) SetDeadline(t time.Time) error {
	if t.IsZero() {
		c.clears.Add(1)
	} else {
		c.sets.Add(1)
	}
	return c.Conn.SetDeadline(t)
}

// A Replay sets one fresh deadline and clears none: every I/O path (call,
// probe, handshake, Shutdown) sets its own first, and on net.Pipe each set
// or clear allocates.
func TestReplaySetsOneDeadline(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	var sets, clears atomic.Int64
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			return deadlineConn{Conn: nc, sets: &sets, clears: &clears}, nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: 2 * time.Second, HeartbeatInterval: -1,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := sets.Load()
	if err := c.Replay(1, w.batches[0]); err != nil {
		t.Fatal(err)
	}
	if got := sets.Load() - before; got != 1 {
		t.Fatalf("a Replay set %d deadlines, want 1", got)
	}
	if got := clears.Load(); got != 0 {
		t.Fatalf("%d deadlines cleared after the handshake and a Replay, want 0", got)
	}
}

// TestHandshakeRejected: a shard-layout mismatch is a typed terminal
// error, and the worker survives to accept a correct client afterwards.
func TestHandshakeRejected(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	dial := func() (net.Conn, error) { return lis.Dial() }
	_, err := Dial(Config{
		Dial: dial, ShardIdx: 2, ShardCount: 2, Epoch: 1, PlanBytes: w.planBytes,
		HeartbeatInterval: -1,
	}, w.srcNames)
	if !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("out-of-range shard: got %v, want ErrBadHandshake", err)
	}
	c, err := Dial(Config{
		Dial: dial, ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		HeartbeatInterval: -1,
	}, w.srcNames)
	if err != nil {
		t.Fatalf("good handshake after rejected one: %v", err)
	}
	c.Close()
}

// TestWorkerRestartDeclaredLost: when the process behind the link is
// replaced (new boot ID), resuming is impossible — the client must
// declare the worker lost rather than silently continue against an empty
// replica.
func TestWorkerRestartDeclaredLost(t *testing.T) {
	w := buildWorkload(t)
	lis1 := startWorker(t)
	lis2 := startWorker(t) // the "restarted" process: fresh state, fresh boot ID
	var target atomic.Pointer[transport.PipeListener]
	target.Store(lis1)
	fs := faultpoint.NewNetFaultSet()
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			nc, err := target.Load().Dial()
			if err != nil {
				return nil, err
			}
			return fs.Wrap("c0", nc), nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: 2 * time.Second, RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond,
		FailTimeout: 10 * time.Second, HeartbeatInterval: -1,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Replay(1, w.batches[0]); err != nil {
		t.Fatal(err)
	}
	// "Crash" worker 1 (sever the live link) and point the address at the
	// replacement process.
	fs.Add(faultpoint.NetRule{Link: "c0", Write: fs.Writes("c0"), Action: faultpoint.NetSever})
	target.Store(lis2)
	err = c.Replay(2, w.batches[1])
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("replay against restarted worker: got %v, want ErrWorkerLost", err)
	}
	if c.DeadErr() == nil {
		t.Fatal("DeadErr is nil after worker loss")
	}
}

// TestFailTimeoutDeclaresLost: an outage that outlasts FailTimeout turns
// into a terminal loss, with OnDown observing the down transition first.
func TestFailTimeoutDeclaresLost(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	var gate atomic.Bool // false = dialling allowed
	fs := faultpoint.NewNetFaultSet()
	var mu sync.Mutex
	var transitions []bool
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			if gate.Load() {
				return nil, errors.New("network partitioned")
			}
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			return fs.Wrap("c0", nc), nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: 2 * time.Second, RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
		FailTimeout: 150 * time.Millisecond, HeartbeatInterval: -1,
		OnDown: func(down bool) {
			mu.Lock()
			transitions = append(transitions, down)
			mu.Unlock()
		},
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Replay(1, w.batches[0]); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	fs.Add(faultpoint.NetRule{Link: "c0", Write: fs.Writes("c0"), Action: faultpoint.NetSever})
	start := time.Now()
	err = c.Replay(2, w.batches[1])
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("got %v, want ErrWorkerLost", err)
	}
	if since := time.Since(start); since < 100*time.Millisecond {
		t.Fatalf("declared lost after %v, before FailTimeout could expire", since)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) < 2 || transitions[0] != true || transitions[len(transitions)-1] != false {
		t.Fatalf("OnDown transitions %v, want down then up-on-loss", transitions)
	}
}

// TestHeartbeatDetectsIdleOutage: with no calls in flight, the heartbeat
// loop alone must notice a partition and (past FailTimeout) declare the
// worker lost.
func TestHeartbeatDetectsIdleOutage(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	var gate atomic.Bool
	fs := faultpoint.NewNetFaultSet()
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			if gate.Load() {
				return nil, errors.New("network partitioned")
			}
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			return fs.Wrap("c0", nc), nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: time.Second, RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
		FailTimeout: 100 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gate.Store(true)
	fs.Add(faultpoint.NetRule{Link: "c0", Write: fs.Writes("c0"), Action: faultpoint.NetSever})
	deadline := time.Now().Add(5 * time.Second)
	for c.DeadErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loop never declared the idle partitioned worker lost")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(c.DeadErr(), ErrWorkerLost) {
		t.Fatalf("DeadErr = %v, want ErrWorkerLost", c.DeadErr())
	}
}

// TestReviveResumesReplica: after a loss whose partition heals, Revive
// resumes the worker's replica, intact; catch-up batches it already
// applied are deduplicated by seq.
func TestReviveResumesReplica(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	var gate atomic.Bool
	fs := faultpoint.NewNetFaultSet()
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			if gate.Load() {
				return nil, errors.New("network partitioned")
			}
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			return fs.Wrap("c0", nc), nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: time.Second, RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
		FailTimeout: 100 * time.Millisecond, HeartbeatInterval: -1,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Replay(1, w.batches[0]); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	fs.Add(faultpoint.NetRule{Link: "c0", Write: fs.Writes("c0"), Action: faultpoint.NetSever})
	if err := c.Replay(2, w.batches[1]); !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("got %v, want ErrWorkerLost", err)
	}
	gate.Store(false)
	if err := c.Revive(); err != nil {
		t.Fatalf("revive: %v", err)
	}
	// The revived replica holds batch 1: replay the whole history from
	// seq 1, whose batch the worker skips.
	for i, batch := range w.batches {
		if err := c.Replay(int64(i+1), batch); err != nil {
			t.Fatalf("catch-up batch %d: %v", i+1, err)
		}
	}
	_, total, firstErr, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if firstErr != "" {
		t.Fatalf("sticky replay error: %s", firstErr)
	}
	if total != w.refTotal {
		t.Fatalf("total after revive %d, want %d", total, w.refTotal)
	}
}

// TestWorkerReplyInPlace holds a worker's reply to a batch call to the
// separately encoded reply framed by transport.AppendFrame, requires the
// reply path to allocate nothing once the reply buffer has grown (the
// batch is one column run repeating an applied seq: it decodes into reused
// storage and replays nothing), and requires a retried call ID to be
// answered with the first reply's bytes.
func TestWorkerReplyInPlace(t *testing.T) {
	w := buildWorkload(t)
	st := &workerState{bootID: 1}
	if ack := st.handshake(freshHello(w)); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	// One column run, whose decode reuses the decoder's storage.
	src := w.batches[0][0].Src
	run := &Run{Cols: make([][]int64, len(w.batches[0][0].Vals))}
	for _, en := range w.batches[0] {
		if en.Src == src {
			run.TS = append(run.TS, en.TS)
			for a, v := range en.Vals {
				run.Cols[a] = append(run.Cols[a], v)
			}
		}
	}
	body := encodeBatch(1, []Entry{{Src: src, Run: run}})
	got := st.reply(5, opBatch, body)
	var completed wire.Buffer
	completed.PutVarintField(1, 1)
	want := transport.AppendFrame(nil, frameReply, encodeReply(5, nil, completed.Bytes()))
	if !bytes.Equal(got, want) {
		t.Fatal("in-place reply frame differs from the framed reply message")
	}
	id := int64(6)
	if allocs := testing.AllocsPerRun(20, func() { st.reply(id, opBatch, body); id++ }); allocs != 0 {
		t.Fatalf("%v allocs per batch reply", allocs)
	}

	lis := startWorker(t)
	rc, ack := dialRaw(t, lis, freshHello(w))
	if ack.Err != "" {
		t.Fatal(ack.Err)
	}
	for i, batch := range w.batches[:3] {
		call := encodeBatch(int64(i+1), batch)
		rc.callID++
		first := rc.callRaw(rc.callID, opBatch, call)
		if retry := rc.callRaw(rc.callID, opBatch, call); !bytes.Equal(first, retry) {
			t.Fatalf("batch %d: retried call answered with different bytes", i+1)
		}
	}
}

// A worker replays each churn record on its own plan and checks the
// record's fingerprint: an add whose fingerprint is its twin plan's
// applies, and a remove whose fingerprint names another plan fails the
// call.
func TestChurnChecksFingerprint(t *testing.T) {
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
	twin, _, err := buildEngine(w.planBytes)
	if err != nil {
		t.Fatal(err)
	}
	m := live.NewMaintainer(twin, rules.Options{})
	churn := func(rec *wire.ChurnRecord, flip uint64) error {
		fp, err := wire.FingerprintPlan(twin)
		if err != nil {
			t.Fatal(err)
		}
		rec.Fingerprint = fp ^ flip
		_, err = c.Churn(&ChurnCall{Rec: rec, Sources: twin.Snapshot().Sources})
		return err
	}
	q := core.NewQuery("again", twin.Queries[0].Root)
	if _, err := m.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := churn(&wire.ChurnRecord{Op: wire.ChurnAdd, Name: q.Name, Root: q.Root}, 0); err != nil {
		t.Fatalf("add with the twin's fingerprint: %v", err)
	}
	if _, err := m.RemoveQuery(q.ID); err != nil {
		t.Fatal(err)
	}
	err = churn(&wire.ChurnRecord{Op: wire.ChurnRemove, Name: q.Name}, 1)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("remove with another plan's fingerprint: %v, want a fingerprint mismatch", err)
	}
}

// field3ChurnCallFields declares a churn call in the current layout plus
// field 3 (a channel stream threshold), as versions that still wrote it
// placed it, with the threshold at 3.
func field3ChurnCallFields(c *wire.Codec, m *ChurnCall) {
	threshold := 3
	wire.Ptr(c, 1, &m.Rec, wire.ChurnRecordFields)
	c.Bool(2, &m.Options.Channels)
	wire.Varint(c, 3, &threshold)
	wire.Msgs(c, 4, &m.Sources, wire.SourceFields)
}

// A churn call that carries the retired field 3 decodes to the call
// without it, and a worker replays it to the plan its twin reached
// without the field: the worker checks the record's fingerprint, which
// is the twin's.
func TestChurnSkipsRetiredField3(t *testing.T) {
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
	twin, _, err := buildEngine(w.planBytes)
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQuery("again", twin.Queries[0].Root)
	if _, err := live.NewMaintainer(twin, rules.Options{}).AddQuery(q); err != nil {
		t.Fatal(err)
	}
	fp, err := wire.FingerprintPlan(twin)
	if err != nil {
		t.Fatal(err)
	}
	rec := &wire.ChurnRecord{Op: wire.ChurnAdd, Name: q.Name, Root: q.Root, Fingerprint: fp}
	call := &ChurnCall{Rec: rec, Sources: twin.Snapshot().Sources}
	old, err := wire.Marshal(call, field3ChurnCallFields)
	if err != nil {
		t.Fatal(err)
	}
	var dec ChurnCall
	if err := wire.Unmarshal(old, &dec, churnCallFields); err != nil {
		t.Fatal(err)
	}
	got, err := wire.Marshal(&dec, churnCallFields)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.Marshal(call, churnCallFields)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a churn call with field 3 decoded to another call than without it")
	}
	var groups []mop.GroupRef
	if err := callFor(c, opChurn, old, &groups, groupsFields); err != nil {
		t.Fatalf("worker replaying a churn call with field 3: %v", err)
	}
}

// A worker refuses a resume it cannot honour, and builds nothing for it:
// a process that never built the replica stays without one, and a process
// that serves another epoch by now keeps that epoch's replica. The stale
// client sees its worker lost.
func TestWorkerRefusesStaleResume(t *testing.T) {
	w := buildWorkload(t)
	lis := startWorker(t)
	stale := freshHello(w)
	stale.Resume = true
	for i := range 2 {
		if _, ack := dialRaw(t, lis, stale); ack.Err == "" {
			t.Fatalf("resume %d on a worker without a replica accepted (last applied %d)", i, ack.LastApplied)
		}
	}

	// Epoch 1's client loses its link. While it is down, epoch 2's
	// coordinator builds a replica on the same process and replays the
	// workload into it.
	var gate atomic.Bool
	fs := faultpoint.NewNetFaultSet()
	c, err := Dial(Config{
		Dial: func() (net.Conn, error) {
			if gate.Load() {
				return nil, errors.New("network partitioned")
			}
			nc, err := lis.Dial()
			if err != nil {
				return nil, err
			}
			return fs.Wrap("c0", nc), nil
		},
		ShardIdx: 0, ShardCount: 1, Epoch: 1, PlanBytes: w.planBytes,
		CallTimeout: 2 * time.Second, RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond,
		FailTimeout: 10 * time.Second, HeartbeatInterval: -1,
	}, w.srcNames)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Replay(1, w.batches[0]); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	fs.Add(faultpoint.NetRule{Link: "c0", Write: fs.Writes("c0"), Action: faultpoint.NetSever})
	replayed := make(chan error, 1)
	go func() { replayed <- c.Replay(2, w.batches[1]) }()
	next := freshHello(w)
	next.Epoch = 2
	rc, ack := dialRaw(t, lis, next)
	if ack.Err != "" {
		t.Fatal(ack.Err)
	}
	for i, batch := range w.batches {
		if errStr, _ := rc.call(opBatch, encodeBatch(int64(i+1), batch)); errStr != "" {
			t.Fatalf("epoch 2 batch %d: %s", i+1, errStr)
		}
	}
	rc.fc.Close()
	gate.Store(false)

	if err := <-replayed; !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("stale client's replay: %v, want ErrWorkerLost", err)
	}
	next.Resume = true
	rc, ack = dialRaw(t, lis, next)
	if ack.Err != "" || ack.LastApplied != int64(len(w.batches)) {
		t.Fatalf("epoch 2 resume: err %q, last applied %d; want its replica at %d", ack.Err, ack.LastApplied, len(w.batches))
	}
	rc.callID = int64(len(w.batches)) // the worker skips call IDs below its last one
	if err := rc.drainEquals(w); err != nil {
		t.Fatal(err)
	}
}
