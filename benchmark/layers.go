package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	rumor "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// perLayer names every per-layer metric with its unit, in print order. A
// layer is one of this repository's packages; a metric that does not
// apply to a workload (live.* outside w1_churn, wire.* outside
// w2_cluster2, …) is reported as 0 there.
var perLayer = []struct{ name, unit string }{
	{"cql.parse_ms", "ms"},
	{"core.plan_build_ms", "ms"},
	{"rules.optimize_ms", "ms"},
	{"rules.ops_before", "count"},
	{"rules.mops_after", "count"},
	{"rules.channel_edges", "count"},
	{"core.partition_ms", "ms"},
	{"engine.lower_ms", "ms"},
	{"cluster.dial_ms", "ms"},
	{"engine.push_ns_per_event", "ns/event"},
	{"rumor.api_ns_per_event", "ns/event"},
	{"engine.deliveries_per_event", "1/event"},
	{"engine.activations_per_event", "1/event"},
	{"engine.blocks_per_event", "1/event"},
	{"engine.member_spills_per_event", "1/event"},
	{"mop.select.busy_ns_per_event", "ns/event"},
	{"mop.select.in_per_event", "1/event"},
	{"mop.select.out_per_event", "1/event"},
	{"mop.seq.busy_ns_per_event", "ns/event"},
	{"mop.seq.in_per_event", "1/event"},
	{"mop.seq.out_per_event", "1/event"},
	{"mop.agg.busy_ns_per_event", "ns/event"},
	{"mop.agg.in_per_event", "1/event"},
	{"mop.agg.out_per_event", "1/event"},
	{"mop.join.busy_ns_per_event", "ns/event"},
	{"mop.join.in_per_event", "1/event"},
	{"mop.join.out_per_event", "1/event"},
	{"mop.project.busy_ns_per_event", "ns/event"},
	{"mop.project.in_per_event", "1/event"},
	{"mop.project.out_per_event", "1/event"},
	{"expr.filtersel_ns_per_row", "ns/row"},
	{"stream.block_cycle_ns", "ns"},
	{"fanin.ns_per_result", "ns/result"},
	{"fanin.results_per_event", "1/event"},
	{"shard.push_ns_per_event", "ns/event"},
	{"shard.worker_busy_ns_per_event", "ns/event"},
	{"shard.worker_busy_max_frac", "ratio"},
	{"shard.tuple_balance", "ratio"},
	{"shard.drain_us_p50", "us"},
	{"shard.drain_us_p99", "us"},
	{"shard.queue_high_water", "count"},
	{"router.wal_bytes_per_event", "B/event"},
	{"router.wal_batches_per_event", "1/event"},
	{"router.multicast_drop_frac", "ratio"},
	{"wire.batch_encode_ns_per_event", "ns/event"},
	{"wire.batch_decode_ns_per_event", "ns/event"},
	{"wire.bytes_per_event", "B/event"},
	{"transport.frame_ns_per_kb", "ns/KiB"},
	{"transport.frames_per_event", "1/event"},
	{"transport.crc_errors", "count"},
	{"cluster.rtt_us", "us"},
	{"cluster.redials", "count"},
	{"live.add_us_p50", "us"},
	{"live.add_us_p99", "us"},
	{"live.remove_us_p50", "us"},
	{"live.remove_us_p99", "us"},
	{"live.slots_live_frac", "ratio"},
	{"state.checkpoint_ms", "ms"},
	{"state.checkpoint_bytes", "B"},
	{"state.restore_ms", "ms"},
	{"gc.pause_ms_total", "ms"},
	{"gc.cycles", "count"},
	{"paced.push_to_result_p50_us", "us"},
	{"paced.push_to_result_p99_us", "us"},
	{"harness.feed_ns_per_event", "ns/event"},
	{"harness.late_p99_us", "us"},
	{"trace.events_per_s", "events/s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// layerRun carries the traced run's state between its steps.
type layerRun struct {
	w   *workload
	in  *inputs
	tr  *tracer
	val map[string]float64
}

func (lr *layerRun) set(name string, v float64) { lr.val[name] = v }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// timed runs f under a span and returns how long it took.
func (lr *layerRun) timed(name string, f func() error) (int64, error) {
	t0 := lr.tr.now()
	end := lr.tr.span(name, 0)
	err := f()
	end()
	return lr.tr.now() - t0, err
}

// peelSetup repeats the set-up one layer at a time — the calls Optimize
// and DialCluster make inside — so that each layer's share is a span of
// its own, and returns the plan and the engine lowered from it.
func (lr *layerRun) peelSetup() (*core.Physical, *engine.Engine, int64, error) {
	defer lr.tr.span("setup.peeled", 0)()
	in := lr.in
	catalog := map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", attrNames()...)},
		"T": {Schema: stream.MustSchema("T", attrNames()...)},
	}
	var queries []*core.Query
	if in.cql != "" {
		var script *cql.Script
		ns, err := lr.timed("cql.Parse", func() (err error) { script, err = cql.Parse(in.cql); return })
		if err != nil {
			return nil, nil, 0, err
		}
		lr.set("cql.parse_ms", ms(ns))
		catalog, queries = script.Catalog, script.Queries
	} else {
		for _, q := range in.queries {
			queries = append(queries, core.NewQuery(q.name, q.root))
		}
	}
	var plan *core.Physical
	build, err := lr.timed("core.NewPhysical+AddQuery", func() error {
		plan = core.NewPhysical(catalog)
		for _, q := range queries {
			if err := plan.AddQuery(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	lr.set("core.plan_build_ms", ms(build))
	lr.set("rules.ops_before", float64(plan.Stats().Ops))
	opt, err := lr.timed("rules.Optimize", func() error {
		return rules.Optimize(plan, rules.Options{Channels: lr.w.channels})
	})
	if err != nil {
		return nil, nil, 0, err
	}
	lr.set("rules.optimize_ms", ms(opt))
	mops := 0
	for _, n := range plan.Nodes {
		if n.Kind != core.KindSource {
			mops++
		}
	}
	lr.set("rules.mops_after", float64(mops))
	lr.set("rules.channel_edges", float64(plan.Stats().Channels))
	part, _ := lr.timed("core.AnalyzePartition", func() error { core.AnalyzePartition(plan); return nil })
	lr.set("core.partition_ms", ms(part))
	var eng *engine.Engine
	lower, err := lr.timed("engine.New", func() (err error) { eng, err = engine.New(plan); return })
	if err != nil {
		return nil, nil, 0, err
	}
	lr.set("engine.lower_ms", ms(lower))
	return plan, eng, build + opt + part, nil
}

// peelEngine replays laps straight into the engine lowered from the same
// plan: what the executor costs without the embedding API, the router or
// the wire, and where inside it the work lands.
func (lr *layerRun) peelEngine(plan *core.Physical, eng *engine.Engine, mode pushMode, seconds float64) error {
	defer lr.tr.span("engine.peeled", 0)()
	p := &pusher{mode: mode, tr: lr.tr, cols: eng.PushColumns,
		row: func(src string, ts int64, vals ...int64) error {
			return eng.Push(src, &stream.Tuple{TS: ts, Vals: vals})
		}}
	if mode == pushColsOwned {
		p.mode = pushCols // one engine borrows the columns, as System does
	}
	feed := lr.in.feed
	lap := func(l int) error {
		for ti := range feed.ticks {
			if err := p.tick(int64(l*feed.events), &feed.ticks[ti]); err != nil {
				return err
			}
		}
		return nil
	}
	lr.tr.off = true // the warm-up lap
	t0 := time.Now()
	err := lap(0)
	lr.tr.off = false
	if err != nil {
		return err
	}
	laps := min(lapsFor(seconds, time.Since(t0).Seconds()), maxTracedLaps)

	snap := func() (*obs.Snapshot, map[string][3]int64) {
		s := obs.NewSnapshot()
		eng.MetricsInto(s)
		kinds := make(map[string][3]int64)
		for _, ns := range eng.NodeStats() {
			n := plan.Nodes[ns.NodeID]
			if n == nil {
				continue
			}
			k := kinds[n.Kind.String()]
			k[0] += ns.Processed
			k[1] += ns.Emitted
			k[2] += ns.BusyNS
			kinds[n.Kind.String()] = k
		}
		return s, kinds
	}
	s0, k0 := snap()
	b0 := eng.BlocksProcessed()
	from := lr.tr.now()
	for l := 1; l <= laps; l++ {
		if err := lap(l); err != nil {
			return err
		}
	}
	to := lr.tr.now()
	s1, k1 := snap()
	events := float64(laps * feed.events)
	pushNS := lr.tr.total("PushColumns", from, to) + lr.tr.total("Push", from, to)
	lr.set("engine.push_ns_per_event", float64(pushNS)/events)
	delta := func(name string) float64 { return float64(s1.Counters[name]-s0.Counters[name]) / events }
	lr.set("engine.deliveries_per_event", delta("engine_tuples_delivered_total"))
	lr.set("engine.activations_per_event", delta("engine_op_processed_total"))
	lr.set("engine.member_spills_per_event", delta("engine_member_spills_total"))
	lr.set("engine.blocks_per_event", float64(eng.BlocksProcessed()-b0)/events)
	lr.set("fanin.results_per_event", delta("engine_results_total"))
	for _, kind := range []string{"select", "seq", "agg", "join", "project"} {
		a, b := k0[kind], k1[kind]
		lr.set("mop."+kind+".in_per_event", float64(b[0]-a[0])/events)
		lr.set("mop."+kind+".out_per_event", float64(b[1]-a[1])/events)
		lr.set("mop."+kind+".busy_ns_per_event", float64(b[2]-a[2])/events)
	}
	return nil
}

// peelMicro times the two leaf layers every block crosses: a block pool
// get+put cycle, and (for the CQL workload) expr.FilterSel over the
// script's own filter predicates and the feed's own column blocks.
func (lr *layerRun) peelMicro() error {
	defer lr.tr.span("micro.peeled", 0)()
	pool := stream.NewBlockPool()
	const cycles = 200000
	end := lr.tr.span("stream.BlockPool.Get+Put", cycles)
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		pool.Put(pool.Get(tickRows, numAttrs))
	}
	lr.set("stream.block_cycle_ns", float64(time.Since(t0))/cycles)
	end()
	if lr.in.cql == "" {
		return nil
	}
	script, err := cql.Parse(lr.in.cql)
	if err != nil {
		return err
	}
	var preds []expr.Pred
	for _, q := range script.Queries {
		for l := q.Root; l != nil && len(l.Children) > 0; l = l.Children[0] {
			if l.Def.Kind == core.KindSelect && expr.Columnar(l.Def.Pred) {
				preds = append(preds, l.Def.Pred)
			}
		}
	}
	if len(preds) == 0 {
		return nil
	}
	sel := make([]uint64, tickRows/64)
	rows := 0
	end = lr.tr.span("expr.FilterSel", int64(len(preds)*len(lr.in.feed.ticks)))
	t0 = time.Now()
	for ti := range lr.in.feed.ticks {
		cols := lr.in.feed.ticks[ti][0].cols
		for _, p := range preds {
			for i := range sel {
				sel[i] = ^uint64(0)
			}
			expr.FilterSel(p, cols, sel)
			rows += tickRows
		}
	}
	lr.set("expr.filtersel_ns_per_row", float64(time.Since(t0))/float64(rows))
	end()
	return nil
}

// peelWire times the cluster codec from outside: one coordinator link and
// one worker over a pipe, both ends tapped, replaying the feed as WAL
// batches against a plan whose single query never matches. Encode is the
// time from the Replay call to its first byte on the wire, less framing;
// decode is the time from the worker's last read to its reply's first
// byte, which includes applying the rows to that near-empty plan. The
// frames the real deployment sent (captured by its taps) time the framing.
func (lr *layerRun) peelWire(frames [][]byte) error {
	defer lr.tr.span("wire.peeled", 0)()
	var frameNS, frameBytes int64
	buf := make([]byte, 0, 1<<16)
	for rep := 0; rep < 20; rep++ {
		for _, f := range frames {
			typ, payload, _, err := transport.DecodeFrame(f, 0)
			if err != nil {
				return fmt.Errorf("captured frame: %w", err)
			}
			t0 := time.Now()
			buf = transport.AppendFrame(buf[:0], typ, payload)
			if _, _, _, err := transport.DecodeFrame(buf, 0); err != nil {
				return err
			}
			frameNS += int64(time.Since(t0))
			frameBytes += int64(len(f))
		}
	}
	nsPerByte := 0.0
	if frameBytes > 0 {
		nsPerByte = float64(frameNS) / float64(frameBytes)
		lr.set("transport.frame_ns_per_kb", nsPerByte*1024)
	}

	plan := core.NewPhysical(map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", attrNames()...)},
		"T": {Schema: stream.MustSchema("T", attrNames()...)},
	})
	never := core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: -1}, core.Scan("S"))
	if err := plan.AddQuery(core.NewQuery("never", never)); err != nil {
		return err
	}
	planBytes, err := wire.EncodePlanBytes(plan.Snapshot())
	if err != nil {
		return err
	}
	lis := transport.NewPipeListener()
	server := &tapConn{clock: lr.tr.now}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = cluster.Serve(tapListener{lis, server}, cluster.WorkerConfig{})
	}()
	client := &tapConn{clock: lr.tr.now}
	cli, err := cluster.Dial(cluster.Config{
		Dial: func() (net.Conn, error) {
			c, err := lis.Dial()
			client.Conn = c
			return client, err
		},
		ShardCount: 1, Epoch: 1, PlanBytes: planBytes, HeartbeatInterval: -1,
	}, []string{"S", "T"})
	if err != nil {
		_ = lis.Close()
		wg.Wait()
		return err
	}
	defer func() {
		_ = cli.Shutdown() // best effort; closing the listener ends Serve either way
		_ = lis.Close()
		wg.Wait()
	}()
	var encNS, decNS int64
	rows := 0
	for seq := 0; rows < 64*tickRows && seq < 2*len(lr.in.feed.ticks); seq++ {
		cb := &lr.in.feed.ticks[seq/2][seq%2]
		entries := make([]cluster.Entry, len(cb.rows))
		for r, row := range cb.rows {
			entries[r] = cluster.Entry{Src: int32(seq % 2), TS: cb.ts[r], Vals: row}
		}
		client.firstWrite, server.firstWrite = 0, 0
		t0 := lr.tr.now()
		end := lr.tr.span("cluster.Client.Replay", int64(len(entries)))
		err := cli.Replay(int64(seq+1), entries)
		end()
		if err != nil {
			return err
		}
		encNS += client.firstWrite - t0
		decNS += server.firstWrite - server.readDone
		rows += len(entries)
	}
	wireBytes := client.written
	framing := nsPerByte * float64(wireBytes) / 2 // AppendFrame's half of the round trip
	lr.set("wire.batch_encode_ns_per_event", (float64(encNS)-framing)/float64(rows))
	lr.set("wire.batch_decode_ns_per_event", (float64(decNS)-framing)/float64(rows))
	return nil
}

// tapListener hands every accepted connection to one tap.
type tapListener struct {
	*transport.PipeListener
	tap *tapConn
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.PipeListener.Accept()
	if err != nil {
		return nil, err
	}
	l.tap.Conn = c
	return l.tap, nil
}

// shardCounters sums, over the traced laps, what a sharded deployment's
// public counters say: ShardStats, Metrics, the transport's ReadStats and
// WorkerHealth. It does nothing for a single-engine deployment.
type shardCounters struct {
	sys    *rumor.ShardedSystem
	stats0 []rumor.ShardStat
	met0   *rumor.Metrics
	tp0    transport.Stats

	busy, tuples []int64
	counter      map[string]int64
	highWater    int64
	tp           transport.Stats
	wallNS       int64
}

func newShardCounters(sys *rumor.ShardedSystem) *shardCounters {
	return &shardCounters{sys: sys, counter: make(map[string]int64)}
}

func (c *shardCounters) open() (err error) {
	if c.sys == nil {
		return nil
	}
	c.stats0 = c.sys.ShardStats()
	c.tp0 = transport.ReadStats()
	c.met0, err = c.sys.Metrics()
	return err
}

func (c *shardCounters) close(wallNS int64) error {
	if c.sys == nil {
		return nil
	}
	stats := c.sys.ShardStats()
	tp := transport.ReadStats()
	met, err := c.sys.Metrics()
	if err != nil {
		return err
	}
	if c.busy == nil {
		c.busy, c.tuples = make([]int64, len(stats)), make([]int64, len(stats))
	}
	for i := range stats {
		c.busy[i] += stats[i].BusyNS - c.stats0[i].BusyNS
		c.tuples[i] += stats[i].Tuples - c.stats0[i].Tuples
	}
	for name, v := range met.Counters {
		c.counter[name] += v - c.met0.Counters[name]
	}
	for name, v := range met.Gauges {
		if strings.HasPrefix(name, "shard_queue_highwater") {
			c.highWater = max(c.highWater, v)
		}
	}
	c.tp.BytesSent += tp.BytesSent - c.tp0.BytesSent
	c.tp.FramesSent += tp.FramesSent - c.tp0.FramesSent
	c.tp.CRCErrors += tp.CRCErrors - c.tp0.CRCErrors
	c.wallNS += wallNS
	return nil
}

func (c *shardCounters) report(lr *layerRun, events float64) {
	var busy, maxBusy, tuples, maxTuples int64
	for i := range c.busy {
		busy, tuples = busy+c.busy[i], tuples+c.tuples[i]
		maxBusy, maxTuples = max(maxBusy, c.busy[i]), max(maxTuples, c.tuples[i])
	}
	lr.set("shard.worker_busy_ns_per_event", float64(busy)/events)
	lr.set("shard.worker_busy_max_frac", float64(maxBusy)/float64(c.wallNS))
	if maxTuples > 0 {
		lr.set("shard.tuple_balance", float64(tuples)/float64(len(c.tuples))/float64(maxTuples))
	}
	lr.set("shard.queue_high_water", float64(c.highWater))
	lr.set("router.wal_bytes_per_event", float64(c.counter["router_wal_bytes_total"])/events)
	lr.set("router.wal_batches_per_event", float64(c.counter["router_wal_batches_total"])/events)
	drops := c.counter["router_multicast_drops_total"]
	if mc := c.counter["router_multicast_hits_total"] + drops; mc > 0 {
		lr.set("router.multicast_drop_frac", float64(drops)/float64(mc))
	}
	lr.set("wire.bytes_per_event", float64(c.tp.BytesSent)/events)
	lr.set("transport.frames_per_event", float64(c.tp.FramesSent)/events)
	lr.set("transport.crc_errors", float64(c.tp.CRCErrors))
	for _, h := range c.sys.WorkerHealth() {
		lr.set("cluster.rtt_us", max(lr.val["cluster.rtt_us"], float64(h.LastRTTNS)/1e3))
		lr.set("cluster.redials", lr.val["cluster.redials"]+float64(h.Redials))
	}
}

// traceWorkload is the traced run: telemetry on, a span around every call
// into a layer, peeled passes through the lower layers' own entry points,
// counters read at the same boundaries. Its numbers explain the
// end-to-end ones; they are never compared with a bound.
func traceWorkload(w *workload, seed int64, seconds float64, sc scale) (*result, error) {
	started := time.Now()
	res, in, err := begin(w, seed, sc)
	if err != nil || res.Unresolved != "" {
		return res, err
	}
	res.PerLayer = make(map[string]stat)
	lr := &layerRun{w: w, in: in, tr: newTracer(), val: make(map[string]float64)}
	tr := lr.tr
	rumor.EnableMetrics(true)
	defer rumor.EnableMetrics(false)

	plan, eng, planNS, err := lr.peelSetup()
	if err != nil {
		return nil, fmt.Errorf("peeled set-up: %w", err)
	}

	// The deployment itself, through the public API.
	var snk *sink
	var taps []*tapConn
	o := buildOpts{tap: func(c net.Conn) net.Conn {
		t := &tapConn{Conn: c, clock: tr.now, keep: 64}
		taps = append(taps, t)
		return t
	}}
	if !w.sharded {
		snk = &sink{}
		o.onResult = tr.callback(snk.onResult)
	}
	var d *deployment
	setupNS, err := lr.timed("rumor.setup", func() (err error) { d, err = w.build(in, o); return })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { _ = d.close() }()
	if w.cluster {
		lr.set("cluster.dial_ms", ms(setupNS-planNS))
	}
	r := newRunner(w, in, d, snk)

	// Laps 0 and 1 warm the deployment up, untraced.
	tr.off = true
	t0 := time.Now()
	if err := r.laps(2); err != nil {
		return nil, err
	}
	lapSeconds := time.Since(t0).Seconds() / 2
	before := r.produced()
	if err := r.laps(1); err != nil {
		return nil, err
	}
	perLap := r.produced() - before

	// Saturation laps, untraced with telemetry off and traced with it on,
	// alternating, so that their ratio is the cost of observing. Counters
	// are read at the edges of the traced laps only.
	const rounds = 4
	laps := min(lapsFor(seconds/20, lapSeconds), maxTracedLaps)
	events := float64(laps * in.feed.events)
	d.tr, r.tr = tr, tr
	if r.ch != nil {
		r.ch.tr = tr
	}
	setTracing := func(on bool) {
		rumor.EnableMetrics(on)
		tr.off = !on
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var plainRates, tracedRates []float64
	var rootNS, attributedNS, pushNS int64
	sh := newShardCounters(d.sharded)
	for round := 0; round < rounds; round++ {
		setTracing(false)
		before := r.produced()
		t0 := time.Now()
		if err := r.laps(laps); err != nil {
			return nil, err
		}
		plainRates = append(plainRates, events/time.Since(t0).Seconds())
		res.checkLaps(r, "untraced saturation", laps, before, perLap)

		setTracing(true)
		if err := sh.open(); err != nil {
			return nil, err
		}
		before = r.produced()
		from := tr.now()
		end := tr.span("saturation", int64(laps))
		err := r.laps(laps)
		end()
		if err != nil {
			return nil, err
		}
		to := tr.now()
		tracedRates = append(tracedRates, events/(float64(to-from)/1e9))
		if err := sh.close(to - from); err != nil {
			return nil, err
		}
		res.checkLaps(r, "traced saturation", laps, before, perLap)
		rootNS += to - from
		for _, name := range []string{"PushColumns", "Push", "Drain", "AddQueryLive", "RemoveQuery"} {
			ns := tr.total(name, from, to)
			attributedNS += ns
			if name == "PushColumns" || name == "Push" {
				pushNS += ns
			}
		}
	}
	tracedEvents := rounds * events
	plain, traced := summarize(plainRates, "").Median, summarize(tracedRates, "").Median
	lr.set("trace.events_per_s", traced)
	lr.set("trace.overhead_frac", 1-traced/plain)
	lr.set("trace.unattributed_frac", 1-float64(attributedNS)/float64(rootNS))
	if d.sharded != nil {
		lr.set("shard.push_ns_per_event", float64(pushNS)/tracedEvents)
		sh.report(lr, tracedEvents)
	}

	// One traced paced rep: drain spans, and how late the generator ran.
	pacedLaps := min(lapsFor(seconds/5, float64(in.feed.events)/w.pacedRate), maxTracedLaps)
	before = r.produced()
	end := tr.span("paced", int64(pacedLaps))
	setTracing(true)
	lat, late, err := r.pacedRep(pacedLaps, w.pacedRate)
	end()
	if err != nil {
		return nil, err
	}
	res.countTicks(lat)
	res.checkLaps(r, "traced paced", pacedLaps, before, perLap)
	runtime.ReadMemStats(&gc1)
	lr.set("gc.pause_ms_total", ms(int64(gc1.PauseTotalNs-gc0.PauseTotalNs)))
	lr.set("gc.cycles", float64(gc1.NumGC-gc0.NumGC))
	lr.set("harness.late_p99_us", percentile(sortedCopy(late), 99))
	lr.set("paced.push_to_result_p50_us", percentile(sortedCopy(lat), 50))
	lr.set("paced.push_to_result_p99_us", percentile(sortedCopy(lat), 99))
	if drains := tr.durations("Drain"); d.sharded != nil && len(drains) > 0 {
		lr.set("shard.drain_us_p50", percentile(drains, 50))
		lr.set("shard.drain_us_p99", percentile(drains, 99))
	}
	if adds, removes := tr.durations("AddQueryLive"), tr.durations("RemoveQuery"); len(adds) > 0 {
		lr.set("live.add_us_p50", percentile(adds, 50))
		lr.set("live.add_us_p99", percentile(adds, 99))
		lr.set("live.remove_us_p50", percentile(removes, 50))
		lr.set("live.remove_us_p99", percentile(removes, 99))
		if pi := d.sys.PlanInfo(); pi.TotalSlots > 0 {
			lr.set("live.slots_live_frac", float64(pi.LiveSlots)/float64(pi.TotalSlots))
		}
	}

	// Result fan-in: the same laps with and without a callback registered,
	// neither traced.
	if d.sys != nil && !w.churn {
		tr.off = true
		var with, without time.Duration
		fanLaps := lapsFor(seconds/20, lapSeconds)
		for round := 0; round < 2; round++ {
			d.sys.OnResult(nil)
			t0 := time.Now()
			if err := r.laps(fanLaps); err != nil {
				return nil, err
			}
			without += time.Since(t0)
			d.sys.OnResult(o.onResult)
			t0 = time.Now()
			if err := r.laps(fanLaps); err != nil {
				return nil, err
			}
			with += time.Since(t0)
		}
		if results := float64(2*fanLaps) * float64(perLap); results > 0 {
			lr.set("fanin.ns_per_result", float64(with-without)/results)
		}
		tr.off = false
	}

	// State: one checkpoint and restore of what the laps left behind.
	if w.checkpoint {
		var buf bytes.Buffer
		ns, err := lr.timed("Checkpoint", func() error {
			if d.sys != nil {
				return d.sys.Checkpoint(&buf)
			}
			return d.sharded.Checkpoint(&buf)
		})
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		lr.set("state.checkpoint_ms", ms(ns))
		lr.set("state.checkpoint_bytes", float64(buf.Len()))
		ns, err = lr.timed("Restore", func() error {
			if d.sys != nil {
				_, err := rumor.Restore(&buf)
				return err
			}
			s, err := rumor.RestoreSharded(&buf, rumor.ShardConfig{})
			if err != nil {
				return err
			}
			return s.Close()
		})
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		lr.set("state.restore_ms", ms(ns))
		res.Attempted += 2
	}
	res.Attempted += r.calls()
	// The deployment is done; closing it now also stops the heartbeats
	// that could still write to the taps.
	if err := d.close(); err != nil {
		return nil, err
	}

	// Peeled passes through the lower layers' own entry points.
	if err := lr.peelEngine(plan, eng, d.mode, seconds/10); err != nil {
		return nil, fmt.Errorf("engine peel: %w", err)
	}
	if d.sys != nil {
		lr.set("rumor.api_ns_per_event", float64(pushNS)/tracedEvents-lr.val["engine.push_ns_per_event"])
	}
	if err := lr.peelMicro(); err != nil {
		return nil, fmt.Errorf("micro peel: %w", err)
	}
	if w.cluster {
		var frames [][]byte
		for _, t := range taps {
			frames = append(frames, t.frames...)
		}
		if err := lr.peelWire(frames); err != nil {
			return nil, fmt.Errorf("wire peel: %w", err)
		}
	}
	dry := dryPusher(d.mode)
	t0 = time.Now()
	for ti := range in.feed.ticks {
		_ = dry.tick(0, &in.feed.ticks[ti])
	}
	lr.set("harness.feed_ns_per_event", float64(time.Since(t0))/float64(in.feed.events))

	for _, m := range perLayer {
		res.PerLayer[m.name] = summarize([]float64{lr.val[m.name]}, m.unit)
	}
	res.Correct = res.Failed == 0
	path := fmt.Sprintf("benchmark/out/trace-%s.json", w.name)
	if err := tr.write(path, map[string]any{"workload": w.name, "seed": seed, "env": environment()}); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	res.Seconds = time.Since(started).Seconds()
	return res, nil
}
