package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mop"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Typed failure sentinels. Callers distinguish a transient outage (the
// client keeps redialling; Push should fail fast but the shard is not
// dead) from a lost worker (terminal: the shard layer's dead-shard
// machinery takes over).
var (
	// ErrUnreachable: the worker cannot currently be reached; the client
	// is retrying with backoff.
	ErrUnreachable = errors.New("cluster: worker unreachable")
	// ErrWorkerLost: the worker is gone for good — the outage outlasted
	// FailTimeout, or the process restarted (boot ID changed) and its
	// replica state is lost.
	ErrWorkerLost = errors.New("cluster: worker lost")
	// ErrBadHandshake: the worker rejected the handshake (protocol or
	// shard-layout mismatch). Terminal.
	ErrBadHandshake = errors.New("cluster: handshake rejected")
	// ErrClosed: the client was closed.
	ErrClosed = errors.New("cluster: client closed")
)

// Config describes one coordinator→worker link.
type Config struct {
	// Dial opens a fresh connection to the worker. Called for the initial
	// connect and every reconnect.
	Dial func() (net.Conn, error)

	ShardIdx   int
	ShardCount int
	// Epoch identifies this cluster instantiation; a worker that serves
	// another epoch refuses to resume this one.
	Epoch int64
	// PlanBytes is the wire snapshot of the physical plan the worker
	// lowers its replica from at Dial. The worker then follows live churn
	// on its own copy, and every later handshake resumes that replica, so
	// the client drops PlanBytes once Dial has connected.
	PlanBytes []byte

	// CallTimeout bounds one RPC attempt (write + reply) and the
	// handshake. 0 means DefaultCallTimeout.
	CallTimeout time.Duration
	// RetryMin/RetryMax bound the exponential reconnect backoff.
	// 0 means 50ms / 2s.
	RetryMin time.Duration
	RetryMax time.Duration
	// FailTimeout is how long an outage may last before the worker is
	// declared lost. 0 means 15s.
	FailTimeout time.Duration
	// HeartbeatInterval paces idle-link liveness probes. 0 means 1s;
	// negative disables the heartbeat loop (in-flight calls still detect
	// failures).
	HeartbeatInterval time.Duration
	// Seed makes the backoff jitter deterministic. 0 means DefaultSeed.
	Seed int64
	// OnDown, when set, observes reachability transitions: OnDown(true)
	// when the link goes down, OnDown(false) when it comes back up or the
	// worker is declared lost (at which point the dead-shard machinery,
	// not the unreachable fast-path, owns the failure). Called without
	// client locks held.
	OnDown func(down bool)
}

// The defaults of Config's CallTimeout and Seed.
const (
	DefaultCallTimeout = 5 * time.Second
	DefaultSeed        = 1
)

func (cfg *Config) fillDefaults() {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.RetryMin == 0 {
		cfg.RetryMin = 50 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.FailTimeout == 0 {
		cfg.FailTimeout = 15 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
}

// Client is the coordinator's handle on one remote shard worker: it owns
// the connection, redials with bounded exponential backoff plus jitter,
// retries calls at-least-once (the worker dedups), and declares the
// worker lost when an outage outlasts FailTimeout or the worker restarts.
//
// All RPC methods are safe for concurrent use; calls are serialized.
type Client struct {
	cfg      Config
	srcNames []string

	// callMu serializes RPCs and owns all reads from the connection; the
	// heartbeat loop acquires it with TryLock so in-flight calls double as
	// liveness probes.
	callMu sync.Mutex
	// rng drives backoff jitter; guarded by callMu.
	rng        *rand.Rand
	nextCallID int64
	// callBuf holds the frame of the call in flight, encoded once and
	// re-sent as is on retry; replyCodec and reply decode its reply. All
	// three are guarded by callMu and reused by the next call.
	callBuf    wire.Buffer
	replyCodec wire.Codec
	reply      reply

	// mu guards the connection and reachability state.
	mu        sync.Mutex
	conn      *transport.Conn
	bootID    int64 // 0 = never connected
	groups    []mop.GroupRef
	down      bool
	downSince time.Time
	deadErr   error
	closed    bool

	stopHB chan struct{}
	hbDone chan struct{}

	// Link telemetry (atomics: read by Health without the locks). rttNS is
	// the last heartbeat round-trip; hbOK counts successful probes; dials
	// counts dial attempts (the first successful connect included, so
	// redials = dials - 1 once up).
	rttNS atomic.Int64
	hbOK  atomic.Int64
	dials atomic.Int64
}

// Health is a point-in-time link-health snapshot: the per-worker state
// the coordinator surfaces in WorkerHealth and the cluster_link_* metric
// gauges.
type Health struct {
	BootID     int64 // last-observed worker boot ID (0 = never connected)
	Epoch      int64 // deployment epoch presented at the handshake
	Down       bool  // transient outage, redialing
	Dead       bool  // declared lost (terminal)
	LastRTTNS  int64 // most recent heartbeat round-trip, 0 before any probe
	Heartbeats int64 // successful idle-link probes
	Redials    int64 // dial attempts beyond the initial connect
}

// Health returns the link-health snapshot. Safe at any time — it takes no
// RPC and never blocks on an outage.
func (c *Client) Health() Health {
	c.mu.Lock()
	h := Health{
		BootID: c.bootID,
		Epoch:  c.cfg.Epoch,
		Down:   c.down,
		Dead:   c.deadErr != nil,
	}
	c.mu.Unlock()
	h.LastRTTNS = c.rttNS.Load()
	h.Heartbeats = c.hbOK.Load()
	if d := c.dials.Load(); d > 1 {
		h.Redials = d - 1
	}
	return h
}

// Dial connects to a worker and performs the initial handshake, building
// the worker's engine replica from cfg.PlanBytes. srcNames is the
// coordinator's source-ID table (Entry.Src indexes into it).
func Dial(cfg Config, srcNames []string) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("cluster: Config.Dial is required")
	}
	cfg.fillDefaults()
	c := &Client{
		cfg:      cfg,
		srcNames: srcNames,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stopHB:   make(chan struct{}),
		hbDone:   make(chan struct{}),
	}
	c.callMu.Lock()
	_, err := c.ensureConn()
	c.cfg.PlanBytes = nil // every later handshake is a resume
	c.callMu.Unlock()
	if err != nil {
		close(c.stopHB)
		close(c.hbDone)
		return nil, err
	}
	if cfg.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.hbDone)
	}
	return c, nil
}

// DeadErr returns the terminal error once the worker has been declared
// lost, nil while it is healthy or merely unreachable.
func (c *Client) DeadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadErr
}

// Groups returns the worker's state-group table as of the last handshake
// or Churn.
func (c *Client) Groups() []mop.GroupRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups
}

// Close drops the connection and stops the heartbeat loop. The worker
// keeps running (use Shutdown to stop it).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	close(c.stopHB)
	<-c.hbDone
	if conn != nil {
		_ = conn.Close()
	}
	return nil
}

// Shutdown asks the worker process to exit (best effort — a worker that
// is unreachable is simply left behind), then closes the client.
func (c *Client) Shutdown() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		_ = conn.WriteFrame(frameShutdown, nil)
	}
	return c.Close()
}

// Revive clears the lost-worker state and connects again, resuming the
// worker's replica — the right move after a healed partition, where the
// surviving process still holds it intact. A restarted process, or one
// that serves another epoch or shard by now, refuses the resume, and the
// worker is declared lost again. Returns an error when no worker answers
// within FailTimeout.
func (c *Client) Revive() error {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.deadErr = nil
	wasDown := c.down
	c.down = false
	c.downSince = time.Time{}
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()
	// Report the up-transition before reconnecting: a revive entered
	// while the link was still flapping must not leave a stale down
	// report (the shard layer counts them).
	if wasDown && c.cfg.OnDown != nil {
		c.cfg.OnDown(false)
	}
	_, err := c.ensureConn()
	return err
}

// ---------------------------------------------------------------------
// Call machinery.

// ensureConn returns a live connection, dialling with backoff until
// FailTimeout expires (→ the worker is declared lost). Must be called
// with callMu held and mu NOT held.
func (c *Client) ensureConn() (*transport.Conn, error) {
	for {
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			return nil, ErrClosed
		case c.deadErr != nil:
			err := c.deadErr
			c.mu.Unlock()
			return nil, err
		case c.conn != nil:
			conn := c.conn
			c.mu.Unlock()
			return conn, nil
		}
		prevBoot := c.bootID
		attemptStart := c.downSince
		c.mu.Unlock()

		conn, ack, err := c.dialOnce(prevBoot)
		if err == nil {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				_ = conn.Close()
				return nil, ErrClosed
			}
			c.conn = conn
			c.bootID = ack.BootID
			c.groups = ack.Groups
			wasDown := c.down
			c.down = false
			c.downSince = time.Time{}
			c.mu.Unlock()
			if wasDown {
				var outage time.Duration
				if !attemptStart.IsZero() {
					outage = time.Since(attemptStart)
				}
				obs.RecordEvent(obs.EvLinkUp, fmt.Sprintf("shard %d reconnected", c.cfg.ShardIdx), outage)
				if c.cfg.OnDown != nil {
					c.cfg.OnDown(false)
				}
			}
			return conn, nil
		}
		if errors.Is(err, ErrBadHandshake) || errors.Is(err, ErrWorkerLost) {
			c.declareDead(err)
			return nil, err
		}
		c.noteFailure(err)
		if attemptStart.IsZero() {
			attemptStart = time.Now()
		}
		if time.Since(attemptStart) >= c.cfg.FailTimeout {
			err = fmt.Errorf("%w: unreachable for %v: %v", ErrWorkerLost, c.cfg.FailTimeout, err)
			c.declareDead(err)
			return nil, err
		}
		c.sleepBackoff(attemptStart)
	}
}

// dialOnce opens one connection and runs the handshake, deadline-bound: a
// fresh one when prevBoot is 0 (never connected), else a resume of the
// replica on worker prevBoot.
func (c *Client) dialOnce(prevBoot int64) (*transport.Conn, *helloAck, error) {
	c.dials.Add(1)
	nc, err := c.cfg.Dial()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: dial: %v", ErrUnreachable, err)
	}
	conn := transport.NewConn(nc, transport.DefaultMaxFrame)
	conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
	h, _ := wire.Marshal(&hello{
		Proto:      ProtoVersion,
		ShardIdx:   c.cfg.ShardIdx,
		ShardCount: c.cfg.ShardCount,
		Epoch:      c.cfg.Epoch,
		Resume:     prevBoot != 0,
		SrcNames:   c.srcNames,
		PlanBytes:  c.cfg.PlanBytes,
	}, helloFields)
	if err := conn.WriteFrame(frameHello, h); err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("%w: sending hello: %v", ErrUnreachable, err)
	}
	for {
		typ, payload, err := conn.ReadFrame()
		if err != nil {
			_ = conn.Close()
			return nil, nil, fmt.Errorf("%w: awaiting hello ack: %v", ErrUnreachable, err)
		}
		if typ != frameHelloAck {
			continue // skip unknown frame types
		}
		ack := &helloAck{}
		if err := wire.Unmarshal(payload, ack, helloAckFields); err != nil {
			_ = conn.Close()
			return nil, nil, fmt.Errorf("%w: decoding hello ack: %v", ErrUnreachable, err)
		}
		switch {
		case prevBoot != 0 && ack.BootID != prevBoot:
			// The process behind the address restarted: its replica state
			// is gone, so resuming is impossible. Terminal.
			err = fmt.Errorf("%w: worker restarted (boot %d -> %d), replica state lost",
				ErrWorkerLost, prevBoot, ack.BootID)
		case prevBoot != 0 && ack.Err != "":
			// The process no longer holds this client's replica.
			err = fmt.Errorf("%w: resume refused: %s", ErrWorkerLost, ack.Err)
		case ack.Err != "":
			err = fmt.Errorf("%w: %s", ErrBadHandshake, ack.Err)
		case ack.Proto != ProtoVersion:
			err = fmt.Errorf("%w: worker protocol %d, client speaks %d", ErrBadHandshake, ack.Proto, ProtoVersion)
		}
		if err != nil {
			_ = conn.Close()
			return nil, nil, err
		}
		return conn, ack, nil
	}
}

// noteFailure records a connection failure: drops the conn and marks the
// link down (reporting the transition).
func (c *Client) noteFailure(err error) {
	c.mu.Lock()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	wasDown := c.down
	c.down = true
	if c.downSince.IsZero() {
		c.downSince = time.Now()
	}
	c.mu.Unlock()
	if !wasDown {
		obs.RecordEvent(obs.EvLinkDown, fmt.Sprintf("shard %d: %v", c.cfg.ShardIdx, err), 0)
		if c.cfg.OnDown != nil {
			c.cfg.OnDown(true)
		}
	}
}

// declareDead marks the worker terminally lost. The unreachable state is
// cleared (reporting up via OnDown) so the shard layer's dead-shard
// machinery — not the unreachable fast-path — owns the failure from here.
func (c *Client) declareDead(err error) {
	c.mu.Lock()
	if c.deadErr == nil {
		c.deadErr = err
		obs.RecordEvent(obs.EvDeadDeclare, fmt.Sprintf("shard %d: %v", c.cfg.ShardIdx, err), 0)
	}
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	wasDown := c.down
	c.down = false
	c.downSince = time.Time{}
	c.mu.Unlock()
	if wasDown && c.cfg.OnDown != nil {
		c.cfg.OnDown(false)
	}
}

// sleepBackoff sleeps the next exponential-backoff interval (with jitter
// in [½,1]×), never past the FailTimeout horizon.
func (c *Client) sleepBackoff(outageStart time.Time) {
	elapsed := time.Since(outageStart)
	// Derive the step from how long the outage has lasted (rather than an
	// attempt counter): retries double from RetryMin up to RetryMax.
	d := c.cfg.RetryMin
	for d <= elapsed && d < c.cfg.RetryMax {
		d *= 2
	}
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	if rem := c.cfg.FailTimeout - elapsed; d > rem {
		d = rem
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// call performs one RPC with an encoded body; see callWith.
func (c *Client) call(op byte, body []byte) ([]byte, error) {
	return c.callWith(op, func(b *wire.Buffer) { b.Append(body) })
}

// callWith performs one RPC whose body is written by body, retrying
// across reconnects until it succeeds or the worker is declared lost. The
// frame is encoded once, into callBuf. The worker's reply cache plus the
// batch seq dedup make retried calls execute at most once.
func (c *Client) callWith(op byte, body func(*wire.Buffer)) ([]byte, error) {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	c.nextCallID++
	callID := c.nextCallID
	frame := encodeCallFrame(&c.callBuf, callID, op, body)
	for {
		conn, err := c.ensureConn()
		if err != nil {
			return nil, err
		}
		// Every I/O path sets a fresh deadline first, so none is cleared
		// after: on net.Pipe each set or clear allocates.
		conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		if err := conn.WriteSealed(frame); err != nil {
			c.noteFailure(err)
			continue
		}
		werr, reply, err := c.awaitReply(conn, callID)
		if err != nil {
			c.noteFailure(err)
			continue
		}
		if werr != nil {
			// An application-level error from the worker: the call executed
			// and failed deterministically; retrying would not help.
			return nil, werr
		}
		return reply, nil
	}
}

// workerError is an error a worker returned for a call. One that rejected
// undecodable input matches wire.ErrCorrupt under errors.Is.
type workerError struct {
	shard   int
	msg     string
	corrupt bool
}

func (e *workerError) Error() string {
	return fmt.Sprintf("cluster: worker shard %d: %s", e.shard, e.msg)
}

//rumor:allow deadexport errors.Is calls it through an unnamed interface
func (e *workerError) Is(target error) bool { return e.corrupt && target == wire.ErrCorrupt }

// awaitReply reads frames until the reply matching callID arrives,
// skipping heartbeat acks, stale replies, and unknown frame types.
func (c *Client) awaitReply(conn *transport.Conn, callID int64) (*workerError, []byte, error) {
	for {
		typ, payload, err := conn.ReadFrame()
		if err != nil {
			return nil, nil, err
		}
		switch typ {
		case frameReply:
			m := &c.reply
			*m = reply{}
			if err := wire.Decode(&c.replyCodec, payload, m, replyFields); err != nil {
				return nil, nil, err
			}
			if m.ID < callID {
				continue // stale reply from an abandoned attempt
			}
			if m.ID != callID {
				return nil, nil, fmt.Errorf("reply for call %d, want %d", m.ID, callID)
			}
			if m.Err != "" {
				return &workerError{shard: c.cfg.ShardIdx, msg: m.Err, corrupt: m.Corrupt}, nil, nil
			}
			return nil, m.Body, nil
		case frameHeartbeatAck:
			continue
		default:
			continue // skip unknown frame types
		}
	}
}

// heartbeatLoop probes the link while it is idle. TryLock keeps it off
// the connection whenever a call is in flight (the call itself is the
// liveness signal then); during an idle outage the probe's ensureConn
// drives reconnection and the FailTimeout clock.
func (c *Client) heartbeatLoop() {
	defer close(c.hbDone)
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case <-t.C:
		}
		if c.DeadErr() != nil {
			continue // idle until a Revive clears the loss
		}
		if !c.callMu.TryLock() {
			continue // a call is in flight; it doubles as the probe
		}
		c.probe()
		c.callMu.Unlock()
	}
}

func (c *Client) probe() {
	conn, err := c.ensureConn()
	if err != nil {
		return
	}
	start := time.Now()
	conn.SetDeadline(start.Add(c.cfg.CallTimeout))
	if err := conn.WriteFrame(frameHeartbeat, nil); err != nil {
		c.noteFailure(err)
		return
	}
	for {
		typ, _, err := conn.ReadFrame()
		if err != nil {
			c.noteFailure(err)
			return
		}
		if typ == frameHeartbeatAck {
			// The probe's write→ack round-trip is the link RTT (plus worker
			// turnaround, which is a frame echo — negligible).
			c.rttNS.Store(time.Since(start).Nanoseconds())
			c.hbOK.Add(1)
			return
		}
	}
}

// ---------------------------------------------------------------------
// RPCs.

// Replay delivers one WAL batch. Delivery is at-least-once; the worker
// dedups by seq, so duplicated or re-sent batches replay exactly once.
func (c *Client) Replay(seq int64, entries []Entry) error {
	entries = rowsAsRuns(entries)
	_, err := c.callWith(opBatch, func(b *wire.Buffer) { putBatch(b, seq, entries) })
	return err
}

// rowsAsRuns returns entries with each stretch of consecutive rows
// (entries without a Run) of one source and width made one run, the shape
// the shard router gives a source's rows. A batch of runs alone is
// returned as it is.
func rowsAsRuns(entries []Entry) []Entry {
	if !slices.ContainsFunc(entries, func(en Entry) bool { return en.Run == nil }) {
		return entries
	}
	out := make([]Entry, 0, len(entries))
	for i := 0; i < len(entries); i++ {
		if en := entries[i]; en.Run == nil {
			j := i + 1
			for j < len(entries) && entries[j].Run == nil && entries[j].Src == en.Src && len(entries[j].Vals) == len(en.Vals) {
				j++
			}
			run := &Run{TS: make([]int64, j-i), Cols: make([][]int64, len(en.Vals))}
			for a := range run.Cols {
				run.Cols[a] = make([]int64, j-i)
			}
			for r, row := range entries[i:j] {
				run.TS[r] = row.TS
				for a, v := range row.Vals {
					run.Cols[a][r] = v
				}
			}
			out = append(out, Entry{Src: en.Src, Run: run})
			i = j - 1
		} else {
			out = append(out, Entry{Src: en.Src, Run: en.Run})
		}
	}
	return out
}

// callFor performs one RPC with an encoded body and decodes its reply
// into v, as decl declares it.
func callFor[T any](c *Client, op byte, body []byte, v *T, decl func(*wire.Codec, *T)) error {
	reply, err := c.call(op, body)
	if err != nil {
		return err
	}
	return wire.Unmarshal(reply, v, decl)
}

// Drain returns the worker's per-query result counts, total, and sticky
// first replay error (empty when none) — the remote form of the local
// worker's quiesce snapshot.
func (c *Client) Drain() (counts []int64, total int64, firstErr string, err error) {
	var d drainReply
	err = callFor(c, opDrain, nil, &d, drainFields)
	return d.Counts, d.Total, d.FirstErr, err
}

// Stats pulls the worker's telemetry snapshot: the worker's own counters
// (batches applied, dedup skips, reply-cache hits) plus its replica
// engine's counters, captured serialized with batch replay so the engine
// numbers are consistent. The coordinator merges the snapshot into its
// own (counters sum, gauges max, histograms add).
func (c *Client) Stats() (*obs.Snapshot, error) {
	var s stats
	if err := callFor(c, opStats, nil, &s, statsFields); err != nil {
		return nil, err
	}
	return s.snapshot(), nil
}

// Churn has the worker replay one live add or remove on its own plan and
// splice the delta it computes there. The worker fails the call when its
// post-op plan's fingerprint is not call.Rec's. The returned group table
// replaces the cached one, and the call's source table becomes the one
// batches name sources by.
func (c *Client) Churn(call *ChurnCall) ([]mop.GroupRef, error) {
	body, err := wire.Marshal(call, churnCallFields)
	if err != nil {
		return nil, err
	}
	var groups []mop.GroupRef
	if err := callFor(c, opChurn, body, &groups, groupsFields); err != nil {
		return nil, err
	}
	c.callMu.Lock()
	c.srcNames = call.srcNames()
	c.callMu.Unlock()
	c.mu.Lock()
	c.groups = groups
	c.mu.Unlock()
	return groups, nil
}

// Export destructively exports everything one group side stores on the
// worker (nil when it stores nothing). Safe to retry: the worker's reply
// cache re-sends the exported payload instead of re-exporting.
func (c *Client) Export(opID, side, keyAttr int) (*mop.StatePayload, error) {
	body, _ := wire.Marshal(&sideCall{OpID: opID, Side: side, KeyAttr: keyAttr}, sideCallFields)
	var m sideCall
	if err := callFor(c, opExport, body, &m, exportReplyFields); err != nil {
		return nil, err
	}
	return wire.DecodePayloadBytes(m.Payload)
}

// Import ships a state payload into the worker's replica. The payload
// itself is NOT consumed on the coordinator side — the worker imports its
// own decoded copy — so the caller keeps ownership (and any rollback
// snapshots aliasing it stay valid).
func (c *Client) Import(opID int, pl *mop.StatePayload) error {
	m := sideCall{OpID: opID}
	if pl != nil && pl.Len() > 0 {
		m.pl = pl
	}
	_, err := c.callWith(opImport, func(b *wire.Buffer) { importCallFields(b, &m) })
	return err
}

// Histogram merges the worker's keyed-state histogram of one group side
// into h.
func (c *Client) Histogram(opID, side, keyAttr int, h map[int64]int64) error {
	body, _ := wire.Marshal(&sideCall{OpID: opID, Side: side, KeyAttr: keyAttr}, sideCallFields)
	var remote hist
	if err := callFor(c, opHistogram, body, &remote, histFields); err != nil {
		return err
	}
	for k, v := range remote.histogram() {
		h[k] += v
	}
	return nil
}

// ResetCounts zeroes the worker's per-query result counters.
func (c *Client) ResetCounts() error {
	_, err := c.call(opResetCounts, nil)
	return err
}
