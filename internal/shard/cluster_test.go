package shard

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/rules"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Cluster partition torture: the same W1–3 × shard-count equivalence
// matrix the in-process runtime passes, but with every replica behind the
// cluster protocol — in-memory pipe links by default, one case over real
// TCP — and deterministic network faults (drop / duplicate / delay /
// sever, by link and write index) injected during steady state,
// rebalancing, and recovery. Every run must finish with results exactly
// equal to an unfaulted single-engine reference: at-least-once delivery
// plus worker-side dedup makes the faults invisible.

// clusterHarness owns the per-link plumbing of a test cluster: dial
// gates (a closed gate refuses reconnection, simulating a partition),
// the latest raw conn per link (closable, to sever in-flight links), and
// an optional deterministic fault set.
type clusterHarness struct {
	fs    *faultpoint.NetFaultSet
	gates []atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

// cut severs link i and blocks reconnection until heal.
func (h *clusterHarness) cut(i int) {
	h.gates[i].Store(true)
	h.mu.Lock()
	c := h.conns[i]
	h.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (h *clusterHarness) heal(i int) { h.gates[i].Store(false) }

func buildTorturePlan(t testing.TB, catalog map[string]core.SourceDecl, qs []*core.Query, channels bool) *core.Physical {
	t.Helper()
	plan := core.NewPhysical(catalog)
	for _, q := range qs {
		if err := plan.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(plan, rules.Options{Channels: channels}); err != nil {
		t.Fatal(err)
	}
	return plan
}

// buildClusterPair starts one in-process cluster worker per shard on pipe
// listeners and dials a NewCluster engine at them, plus an unfaulted
// single-engine reference. Heartbeats are disabled so the per-link write
// counters (which the fault rules key on) are deterministic.
// ecfg overrides the cluster engine's batching (zero values mean the
// shared default of 64-entry batches): the fail-fast test shrinks the
// queue so the backpressure wall — the point where the router must yield
// to its workers — arrives within the outage window even on one CPU.
func buildClusterPair(t *testing.T, catalog map[string]core.SourceDecl, qs []*core.Query, channels bool, shards int, h *clusterHarness, ecfg Config, tune func(i int, nc *cluster.Config)) (*engine.Engine, *Engine) {
	t.Helper()
	ref, err := engine.New(buildTorturePlan(t, catalog, qs, channels))
	if err != nil {
		t.Fatal(err)
	}
	h.gates = make([]atomic.Bool, shards)
	h.conns = make([]net.Conn, shards)
	nodes := make([]cluster.Config, shards)
	for i := 0; i < shards; i++ {
		lis := transport.NewPipeListener()
		done := make(chan struct{})
		go func() {
			defer close(done)
			cluster.Serve(lis, cluster.WorkerConfig{})
		}()
		t.Cleanup(func() {
			lis.Close()
			<-done
		})
		i := i
		nodes[i] = cluster.Config{
			Dial: func() (net.Conn, error) {
				if h.gates[i].Load() {
					return nil, fmt.Errorf("link %d gated", i)
				}
				nc, err := lis.Dial()
				if err != nil {
					return nil, err
				}
				h.mu.Lock()
				h.conns[i] = nc
				h.mu.Unlock()
				if h.fs != nil {
					return h.fs.Wrap(fmt.Sprintf("link%d", i), nc), nil
				}
				return nc, nil
			},
			Epoch:             1,
			CallTimeout:       2 * time.Second,
			RetryMin:          time.Millisecond,
			RetryMax:          10 * time.Millisecond,
			FailTimeout:       30 * time.Second,
			HeartbeatInterval: -1,
			Seed:              42 + int64(i),
		}
		if tune != nil {
			tune(i, &nodes[i])
		}
	}
	ecfg.Shards = shards
	if ecfg.BatchSize == 0 {
		ecfg.BatchSize = 64
	}
	sh, err := NewCluster(buildTorturePlan(t, catalog, qs, channels), nil, ecfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return ref, sh
}

// feedStep is one push of a cluster feed: the rows it carries, in the
// order the reference engine consumes them, and the cluster push.
type feedStep struct {
	rows []workload.Event
	push func(sh *Engine) error
}

func (s feedStep) pushRef(t *testing.T, ref *engine.Engine) {
	t.Helper()
	for _, ev := range s.rows {
		if err := ref.Push(ev.Source, ev.Tuple); err != nil {
			t.Fatal(err)
		}
	}
}

// clusterFeed cuts an event sequence into cluster pushes.
type clusterFeed func(events []workload.Event) []feedStep

// rowFeed pushes one event at a time through Push.
func rowFeed(events []workload.Event) []feedStep {
	steps := make([]feedStep, len(events))
	for i, ev := range events {
		steps[i] = feedStep{rows: events[i : i+1], push: func(sh *Engine) error {
			return sh.Push(ev.Source, int64(ev.Tuple.TS), ev.Tuple.Vals)
		}}
	}
	return steps
}

// colFeedRows is the row count of one column-feed push.
const colFeedRows = 64

// columnFeed cuts events into windows of colFeedRows rows per source and
// pushes each source's rows of a window as one PushColumns call. The
// reference consumes the rows in the same order, so the grouping is part
// of the input, not of the system under test.
func columnFeed(events []workload.Event) []feedStep {
	var steps []feedStep
	for off := 0; off < len(events); off += 2 * colFeedRows {
		window := events[off:min(off+2*colFeedRows, len(events))]
		bySource := map[string][]workload.Event{}
		var order []string
		for _, ev := range window {
			if bySource[ev.Source] == nil {
				order = append(order, ev.Source)
			}
			bySource[ev.Source] = append(bySource[ev.Source], ev)
		}
		for _, src := range order {
			rows := bySource[src]
			steps = append(steps, feedStep{rows: rows, push: func(sh *Engine) error {
				// The engine keeps what it is handed, so every attempt
				// transposes a fresh copy.
				ts := make([]int64, len(rows))
				cols := make([][]int64, len(rows[0].Tuple.Vals))
				for a := range cols {
					cols[a] = make([]int64, len(rows))
				}
				for r, ev := range rows {
					ts[r] = int64(ev.Tuple.TS)
					for a, v := range ev.Tuple.Vals {
						cols[a][r] = v
					}
				}
				return sh.PushColumns(src, ts, cols)
			}})
		}
	}
	return steps
}

// pushSteps drives the reference and the cluster through the same feed
// like a real embedder: ErrShardUnreachable pushes retry after a pause
// (rejected pushes were never ingested), anything else is fatal.
func pushSteps(t *testing.T, ref *engine.Engine, sh *Engine, steps []feedStep) {
	t.Helper()
	for _, s := range steps {
		s.pushRef(t, ref)
		stepPush(t, sh, s)
	}
}

// stepPush pushes one feed step into the cluster alone, retrying while
// its shard is unreachable.
func stepPush(t *testing.T, sh *Engine, s feedStep) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		err := s.push(sh)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrShardUnreachable) || time.Now().After(deadline) {
			t.Fatalf("Push: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pushAll is pushSteps over a row feed.
func pushAll(t *testing.T, ref *engine.Engine, sh *Engine, events []workload.Event) {
	t.Helper()
	pushSteps(t, ref, sh, rowFeed(events))
}

// clusterPush is stepPush of one row.
func clusterPush(t *testing.T, sh *Engine, ev workload.Event) {
	t.Helper()
	stepPush(t, sh, rowFeed([]workload.Event{ev})[0])
}

func checkClusterEquivalence(t *testing.T, ref *engine.Engine, sh *Engine, qs []*core.Query) {
	t.Helper()
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	if ref.TotalResults() == 0 {
		t.Fatal("workload produced no results; equivalence is vacuous")
	}
	for _, q := range qs {
		if got, want := sh.ResultCount(q.ID), ref.ResultCount(q.ID); got != want {
			t.Fatalf("query %s: %d results, want %d", q.Name, got, want)
		}
	}
	if got, want := sh.TotalResults(), ref.TotalResults(); got != want {
		t.Fatalf("total results %d, want %d", got, want)
	}
}

// W1–3 × shards 2/4 over pipe links, no faults, with a mid-stream drain
// and a mid-stream rebalance (remote state export/import over the wire).
func TestClusterEquivalence(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w3"} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", wl, shards), func(t *testing.T) {
				catalog, qs, events := tortureWorkload(t, wl)
				h := &clusterHarness{}
				ref, sh := buildClusterPair(t, catalog, qs, false, shards, h, Config{}, nil)
				defer sh.Close()
				mid := len(events) / 2
				pushAll(t, ref, sh, events[:mid])
				if err := sh.Drain(); err != nil {
					t.Fatal(err)
				}
				if _, err := sh.Rebalance(nil); err != nil {
					t.Fatal(err)
				}
				pushAll(t, ref, sh, events[mid:])
				checkClusterEquivalence(t, ref, sh, qs)
			})
		}
	}
}

// One case over real TCP loopback: same workload, same equivalence bar,
// listener/dialer shape identical to a genuine multi-process deployment.
func TestClusterEquivalenceTCP(t *testing.T) {
	catalog, qs, events := tortureWorkload(t, "w2")
	ref, err := engine.New(buildTorturePlan(t, catalog, qs, false))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	nodes := make([]cluster.Config, shards)
	for i := 0; i < shards; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			cluster.Serve(lis, cluster.WorkerConfig{})
		}()
		t.Cleanup(func() {
			lis.Close()
			<-done
		})
		addr := lis.Addr().String()
		nodes[i] = cluster.Config{
			Dial:              func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) },
			Epoch:             1,
			CallTimeout:       2 * time.Second,
			RetryMin:          time.Millisecond,
			RetryMax:          10 * time.Millisecond,
			HeartbeatInterval: -1,
			Seed:              7 + int64(i),
		}
	}
	sh, err := NewCluster(buildTorturePlan(t, catalog, qs, false), nil, Config{Shards: shards, BatchSize: 64}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	mid := len(events) / 2
	pushAll(t, ref, sh, events[:mid])
	if _, err := sh.Rebalance(nil); err != nil {
		t.Fatal(err)
	}
	pushAll(t, ref, sh, events[mid:])
	checkClusterEquivalence(t, ref, sh, qs)
}

// Deterministic fault matrix: each action fires at fixed write indices on
// both links — early (steady-state batches), around the mid-stream
// rebalance (state export/import RPCs), and late. Results must match the
// unfaulted reference exactly; the at-least-once call layer, the worker's
// seq dedup, and the reply cache (for destructive exports) absorb every
// fault.
func TestClusterNetFaultMatrix(t *testing.T) { runNetFaultMatrix(t, rowFeed) }

// TestClusterColumnsNetFaultMatrix is the fault matrix over a column
// feed: every push is a PushColumns window, so the faults redeliver and
// re-dedup whole column runs.
func TestClusterColumnsNetFaultMatrix(t *testing.T) { runNetFaultMatrix(t, columnFeed) }

func runNetFaultMatrix(t *testing.T, feed clusterFeed) {
	actions := []struct {
		name string
		act  faultpoint.NetAction
	}{
		{"drop", faultpoint.NetDrop},
		{"dup", faultpoint.NetDup},
		{"delay", faultpoint.NetDelay},
		{"sever", faultpoint.NetSever},
	}
	for _, a := range actions {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", a.name, shards), func(t *testing.T) {
				catalog, qs, events := tortureWorkload(t, "w2")
				h := &clusterHarness{fs: faultpoint.NewNetFaultSet()}
				for _, link := range []string{"link0", "link1"} {
					for _, w := range []int{2, 9, 23, 31, 44} {
						h.fs.Add(faultpoint.NetRule{Link: link, Write: w, Action: a.act})
					}
				}
				tune := func(i int, nc *cluster.Config) {
					// Keep dropped-frame stalls short: a lost call retries
					// after CallTimeout.
					nc.CallTimeout = 300 * time.Millisecond
				}
				ref, sh := buildClusterPair(t, catalog, qs, false, shards, h, Config{}, tune)
				defer sh.Close()
				mid := len(events) / 2
				pushSteps(t, ref, sh, feed(events[:mid]))
				if _, err := sh.Rebalance(nil); err != nil {
					t.Fatal(err)
				}
				pushSteps(t, ref, sh, feed(events[mid:]))
				checkClusterEquivalence(t, ref, sh, qs)
				if h.fs.Hits("link0") == 0 || h.fs.Hits("link1") == 0 {
					t.Fatalf("faults fired %d/%d times on link0/link1; matrix is vacuous",
						h.fs.Hits("link0"), h.fs.Hits("link1"))
				}
			})
		}
	}
}

// A partitioned worker makes pushes routed at it fail fast with
// ErrShardUnreachable (no unbounded buffering, no blocking); once the
// link heals, retrying the rejected pushes resumes exactly — final counts
// match the unfaulted reference.
//
// The outage is detected by the shard's worker goroutine the moment it
// attempts a replay on the severed link; until then pushes land in the
// bounded pending/queue buffers (and the WAL) and return nil. The tiny
// batch and queue here put that detection within the first ~100 events
// even on a single-CPU box, where the worker may not run until the
// router hits the backpressure wall and yields.
func TestClusterOutageFailFastThenResume(t *testing.T) {
	catalog, qs, events := tortureWorkload(t, "w2")
	h := &clusterHarness{}
	ref, sh := buildClusterPair(t, catalog, qs, false, 2, h,
		Config{BatchSize: 16, QueueDepth: 2}, nil)
	defer sh.Close()

	third := len(events) / 3
	pushAll(t, ref, sh, events[:third])
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}

	h.cut(1)
	// Drive pushes until the outage surfaces. The reference consumes every
	// event; a cluster push that errors was rejected before ingestion and
	// is re-pushed after healing.
	rejected := -1
	for i := third; i < len(events); i++ {
		ev := events[i]
		if err := ref.Push(ev.Source, ev.Tuple); err != nil {
			t.Fatal(err)
		}
		err := sh.Push(ev.Source, int64(ev.Tuple.TS), ev.Tuple.Vals)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrShardUnreachable) {
			t.Fatalf("Push during outage: %v, want ErrShardUnreachable", err)
		}
		rejected = i
		break
	}
	if rejected < 0 {
		t.Fatal("outage never surfaced as ErrShardUnreachable")
	}
	// Fail-fast must hold while the link is down: the same push is
	// rejected again immediately, not queued.
	ev := events[rejected]
	if err := sh.Push(ev.Source, int64(ev.Tuple.TS), ev.Tuple.Vals); !errors.Is(err, ErrShardUnreachable) {
		t.Fatalf("second push during outage: %v, want ErrShardUnreachable", err)
	}

	h.heal(1)
	// Retry the rejected push, then run the remainder through both.
	clusterPush(t, sh, events[rejected])
	for _, ev := range events[rejected+1:] {
		if err := ref.Push(ev.Source, ev.Tuple); err != nil {
			t.Fatal(err)
		}
		clusterPush(t, sh, ev)
	}
	checkClusterEquivalence(t, ref, sh, qs)
}

// An outage outlasting FailTimeout declares the shard dead (ErrShardDead,
// not the transient ErrShardUnreachable). RecoverShard while the
// partition persists fails terminally but harmlessly; once the link heals
// it revives the worker — the replica survived in the worker process —
// replays the WAL suffix (worker-side seq dedup absorbs the overlap), and
// migrates its state to the survivor over the wire. Results match the
// unfaulted reference exactly.
func TestClusterDeadDeclareAndRecoverOverWire(t *testing.T) {
	runDeadDeclareAndRecover(t, rowFeed, false)
}

// TestClusterColumnsDeadDeclareAndRecoverOverWire is the same outage over
// a column feed: recovery replays WAL column runs into the revived worker.
// A column feed hands the router whole windows, so its remainder can sit
// in the queues and the WAL before the worker first writes to the cut
// link; the feed may then run out before any push sees the death, and the
// Drain barrier is what observes it.
func TestClusterColumnsDeadDeclareAndRecoverOverWire(t *testing.T) {
	runDeadDeclareAndRecover(t, columnFeed, true)
}

// runDeadDeclareAndRecover runs the outage over feed. Unless
// deathAtDrain is set, some push must be rejected with ErrShardDead and is
// re-pushed after recovery.
func runDeadDeclareAndRecover(t *testing.T, feed clusterFeed, deathAtDrain bool) {
	catalog, qs, events := tortureWorkload(t, "w2")
	h := &clusterHarness{}
	tune := func(i int, nc *cluster.Config) {
		nc.CallTimeout = 300 * time.Millisecond
		nc.FailTimeout = 400 * time.Millisecond
	}
	ref, sh := buildClusterPair(t, catalog, qs, false, 2, h, Config{}, tune)
	defer sh.Close()

	mid := len(events) / 2
	pushSteps(t, ref, sh, feed(events[:mid]))
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}

	h.cut(1)
	steps := feed(events[mid:])
	rejected := -1
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < len(steps) && rejected < 0; i++ {
		steps[i].pushRef(t, ref)
		for {
			err := steps[i].push(sh)
			if err == nil {
				break
			}
			if errors.Is(err, ErrShardDead) {
				rejected = i
				break
			}
			if !errors.Is(err, ErrShardUnreachable) {
				t.Fatalf("Push during outage: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("worker was never declared dead")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if rejected < 0 {
		if !deathAtDrain {
			t.Fatal("workload ended before the death was declared")
		}
		// The feed ran out first. The barrier waits for the loss, and
		// recovery then replays all of the remainder from the WAL.
		if err := sh.Drain(); !errors.Is(err, ErrShardDead) {
			t.Fatalf("Drain during outage: %v, want ErrShardDead", err)
		}
		rejected = len(steps)
	}

	// Still partitioned: recovery cannot reach the corpse's state. The
	// error is terminal (ErrShardDead, "restore from a checkpoint") but
	// the engine is untouched — the call is retryable after healing.
	if _, err := sh.RecoverShard(); !errors.Is(err, ErrShardDead) {
		t.Fatalf("RecoverShard during partition: %v, want ErrShardDead", err)
	}

	h.heal(1)
	st, err := sh.RecoverShard()
	if err != nil {
		t.Fatalf("RecoverShard after heal: %v", err)
	}
	if sh.NumShards() != 1 {
		t.Fatalf("%d shards after recovery, want 1", sh.NumShards())
	}
	if st.Shard != 1 {
		t.Fatalf("recovered shard %d, want 1", st.Shard)
	}

	if rejected < len(steps) {
		stepPush(t, sh, steps[rejected])
		pushSteps(t, ref, sh, steps[rejected+1:])
	}
	checkClusterEquivalence(t, ref, sh, qs)
}

// A restarted worker process presents a new boot ID: its replica state is
// gone, so the shard is declared lost and RecoverShard reports the state
// unavailable (terminal ErrShardDead — checkpoint restore is the way
// out) instead of silently recovering from an empty replica.
func TestClusterWorkerRestartStateLost(t *testing.T) {
	catalog, qs, events := tortureWorkload(t, "w2")

	var lisMu sync.Mutex
	listeners := make([]*transport.PipeListener, 2)
	conns := make([]net.Conn, 2)
	serve := func(i int) (stop func()) {
		lis := transport.NewPipeListener()
		lisMu.Lock()
		listeners[i] = lis
		lisMu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			cluster.Serve(lis, cluster.WorkerConfig{})
		}()
		return func() {
			// Sever the live conn as well: Serve blocks reading it, and a
			// closed listener alone never unblocks that read.
			lis.Close()
			lisMu.Lock()
			c := conns[i]
			lisMu.Unlock()
			if c != nil {
				c.Close()
			}
			<-done
		}
	}
	stop0 := serve(0)
	defer stop0()
	stop1 := serve(1)
	stopped1 := false
	defer func() {
		if !stopped1 {
			stop1()
		}
	}()

	ref, err := engine.New(buildTorturePlan(t, catalog, qs, false))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]cluster.Config, 2)
	for i := 0; i < 2; i++ {
		i := i
		nodes[i] = cluster.Config{
			Dial: func() (net.Conn, error) {
				lisMu.Lock()
				lis := listeners[i]
				lisMu.Unlock()
				nc, err := lis.Dial()
				if err != nil {
					return nil, err
				}
				lisMu.Lock()
				conns[i] = nc
				lisMu.Unlock()
				return nc, nil
			},
			Epoch:             1,
			CallTimeout:       300 * time.Millisecond,
			RetryMin:          time.Millisecond,
			RetryMax:          10 * time.Millisecond,
			FailTimeout:       500 * time.Millisecond,
			HeartbeatInterval: -1,
			Seed:              11 + int64(i),
		}
	}
	sh, err := NewCluster(buildTorturePlan(t, catalog, qs, false), nil, Config{Shards: 2, BatchSize: 64}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	mid := len(events) / 2
	pushAll(t, ref, sh, events[:mid])
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}

	// Restart worker 1: the replacement process has a fresh boot ID and an
	// empty replica.
	stop1()
	stopped1 = true
	stop1 = serve(1)
	stopped1 = false

	sawDead := false
	deadline := time.Now().Add(time.Minute)
	for i := mid; i < len(events) && !sawDead; i++ {
		ev := events[i]
		for {
			err := sh.Push(ev.Source, int64(ev.Tuple.TS), ev.Tuple.Vals)
			if err == nil {
				break
			}
			if errors.Is(err, ErrShardDead) {
				sawDead = true
				break
			}
			if !errors.Is(err, ErrShardUnreachable) {
				t.Fatalf("Push after restart: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("restart was never detected")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !sawDead {
		t.Fatal("workload ended before the restart was detected")
	}
	if _, err := sh.RecoverShard(); !errors.Is(err, ErrShardDead) {
		t.Fatalf("RecoverShard after restart: %v, want terminal ErrShardDead", err)
	}
	// The engine itself is not poisoned: the dead shard keeps rejecting,
	// and a checkpoint restore (outside this test) is the way forward.
	if err := sh.Drain(); !errors.Is(err, ErrShardDead) {
		t.Fatalf("Drain after failed recovery: %v, want ErrShardDead", err)
	}
}

// pipeWorkers starts n cluster workers on pipe listeners and returns their
// listeners; the workers stop when the test ends.
func pipeWorkers(tb testing.TB, n int) []*transport.PipeListener {
	tb.Helper()
	listeners := make([]*transport.PipeListener, n)
	for i := range listeners {
		lis := transport.NewPipeListener()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for cluster.Serve(lis, cluster.WorkerConfig{}) == nil {
				// A coordinator's Close shuts the worker down; serve the next.
			}
		}()
		tb.Cleanup(func() {
			lis.Close()
			<-done
		})
		listeners[i] = lis
	}
	return listeners
}

// pipeNodes is one node config per listener, without heartbeats.
func pipeNodes(listeners []*transport.PipeListener) []cluster.Config {
	nodes := make([]cluster.Config, len(listeners))
	for i, lis := range listeners {
		nodes[i] = cluster.Config{Dial: func() (net.Conn, error) { return lis.Dial() }, Epoch: 1, HeartbeatInterval: -1}
	}
	return nodes
}

// BenchmarkDialClusterW2 builds a 2-shard cluster engine over a 1 000-query
// Workload 2 plan on pipe workers, each of which decodes the plan, rebuilds
// it and lowers an engine before its Dial returns, and closes it again.
func BenchmarkDialClusterW2(b *testing.B) {
	prm := workload.DefaultParams()
	qs, err := workload.ToRUMOR(prm.Workload2Seq())
	if err != nil {
		b.Fatal(err)
	}
	plan := buildTorturePlan(b, prm.Catalog(), qs, true)
	nodes := pipeNodes(pipeWorkers(b, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh, err := NewCluster(plan, nil, Config{}, nodes)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sh.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// smallW2Plan is Workload 2 at 20 queries.
func smallW2Plan(t *testing.T) *core.Physical {
	t.Helper()
	prm := workload.DefaultParams()
	prm.NumQueries = 20
	qs, err := workload.ToRUMOR(prm.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	return buildTorturePlan(t, prm.Catalog(), qs, false)
}

// TestClusterDialsConcurrently holds NewCluster to dialling its nodes at
// once: each node's Dial waits until all three dials have started, which
// dials made one after another never reach, and fails after 5 s.
func TestClusterDialsConcurrently(t *testing.T) {
	nodes := pipeNodes(pipeWorkers(t, 3))
	var started atomic.Int32
	all := make(chan struct{})
	for i := range nodes {
		dial, once := nodes[i].Dial, new(sync.Once)
		nodes[i].Dial = func() (net.Conn, error) {
			once.Do(func() {
				if started.Add(1) == int32(len(nodes)) {
					close(all)
				}
			})
			select {
			case <-all:
				return dial()
			case <-time.After(5 * time.Second):
				return nil, errors.New("the other nodes were not dialled meanwhile")
			}
		}
		nodes[i].RetryMax, nodes[i].FailTimeout = time.Millisecond, time.Millisecond
	}
	sh, err := NewCluster(smallW2Plan(t), nil, Config{}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}

// acceptSignal is a listener that signals each Accept call before it
// waits.
type acceptSignal struct {
	net.Listener
	accepts chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	l.accepts <- struct{}{}
	return l.Listener.Accept()
}

// TestClusterDialFailureClosesConnected: when nodes 1 and 2 cannot be
// dialled, NewCluster reports shard 1, the lowest failing shard, and
// closes the connection it made to worker 0, whose Serve goes back to
// Accept, leaving no client heartbeat behind.
func TestClusterDialFailureClosesConnected(t *testing.T) {
	plan := smallW2Plan(t)
	lis := acceptSignal{transport.NewPipeListener(), make(chan struct{}, 2)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		cluster.Serve(lis, cluster.WorkerConfig{})
	}()
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	<-lis.accepts
	before := runtime.NumGoroutine()
	nodes := make([]cluster.Config, 3)
	nodes[0] = cluster.Config{Dial: lis.Listener.(*transport.PipeListener).Dial, Epoch: 1, HeartbeatInterval: time.Millisecond}
	for i := 1; i < 3; i++ {
		nodes[i] = cluster.Config{
			Dial:        func() (net.Conn, error) { return nil, fmt.Errorf("node %d is down", i) },
			Epoch:       1,
			RetryMin:    time.Millisecond,
			RetryMax:    2 * time.Millisecond,
			FailTimeout: 10 * time.Millisecond,
		}
	}
	if _, err := NewCluster(plan, nil, Config{}, nodes); err == nil || !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("NewCluster: %v, want an error of shard 1", err)
	}
	select {
	case <-lis.accepts:
	case <-time.After(5 * time.Second):
		t.Fatal("worker 0 still serves the connection NewCluster made")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before NewCluster", runtime.NumGoroutine(), before)
		}
	}
}
