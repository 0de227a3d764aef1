package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// tickLimit is the latency limit of the paced phase: a tick whose results
// are not observable within it counts as failed, whether slow or refused.
// It is far above any tick of a working deployment on purpose: the
// reference host now and then stalls a process for 50–100 ms, and a stall
// of the host must not read as a failure of the system. Slowness below the
// limit shows in the latency metrics.
const tickLimit = time.Second

// setupFor is how long the set-up phase keeps making fresh builds (at
// least minSetupReps, at most scale.setupReps): a 5 ms set-up needs more
// samples for a steady median than a 25 ms one.
const (
	setupFor     = 400 * time.Millisecond
	minSetupReps = 5
)

// result is one workload's row of the ledger.
type result struct {
	Workload   string          `json:"workload"`
	Unresolved string          `json:"unresolved,omitempty"`
	Correct    bool            `json:"correct"`
	Attempted  int64           `json:"ops_attempted"`
	Failed     int64           `json:"ops_failed"`
	Metrics    map[string]stat `json:"metrics,omitempty"`
	PerLayer   map[string]stat `json:"per_layer,omitempty"`
	Constants  runConstants    `json:"constants"`
	Notes      []string        `json:"notes,omitempty"`
	Seconds    float64         `json:"wall_s"`

	counts map[string]int64 // per-query results of the verified ticks
}

// runConstants records what shaped the run besides the seed.
type runConstants struct {
	PacedRate     float64 `json:"paced_rate"`
	LapEvents     int     `json:"lap_events"`
	Queries       int     `json:"queries"`
	SatReps       int     `json:"sat_reps"`
	SatLaps       int     `json:"sat_laps_per_rep"`
	PacedReps     int     `json:"paced_reps"`
	PacedLaps     int     `json:"paced_laps_per_rep"`
	SetupReps     int     `json:"setup_reps"`
	VerifiedTicks int     `json:"verified_ticks"`
	ResultsPerLap int64   `json:"results_per_lap"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 12 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// begin opens a workload's row: it refuses a deployment the host cannot
// carry (the row is then unresolved, not failed) and generates the inputs.
func begin(w *workload, seed int64, sc scale) (*result, *inputs, error) {
	res := &result{Workload: w.name}
	if runtime.GOMAXPROCS(0) < w.cores() {
		res.Unresolved = fmt.Sprintf("needs GOMAXPROCS >= %d, have %d", w.cores(), runtime.GOMAXPROCS(0))
		return res, nil, nil
	}
	in, err := w.gen(seed, sc)
	return res, in, err
}

// checkLaps holds n laps just pushed to the result total every lap after
// the first must reproduce.
func (r *result) checkLaps(run *runner, phase string, n int, before, perLap int64) {
	r.Attempted++
	if got := run.produced() - before; got != int64(n)*perLap {
		r.fail("%s: %d laps produced %d results, the settling lap produced %d", phase, n, got, perLap)
	}
}

// countTicks counts a paced rep's ticks, and as failed those over the
// latency limit.
func (r *result) countTicks(latUS []float64) {
	r.Attempted += int64(len(latUS))
	for _, l := range latUS {
		if l > float64(tickLimit)/float64(time.Microsecond) {
			r.Failed++
		}
	}
}

// liveHeap is HeapAlloc after two collections: what the process retains.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runner drives one deployment through the lap sequence.
type runner struct {
	d    *deployment
	feed *feed
	ch   *churner
	snk  *sink
	lap  int64   // whole laps pushed so far
	tr   *tracer // nil outside the traced run
}

func (r *runner) off() int64 { return r.lap * int64(r.feed.events) }

func (r *runner) tick(ti int) error {
	if r.tr != nil {
		r.tr.tick = int(r.lap)*len(r.feed.ticks) + ti
		defer r.tr.span("tick", tickEvents)()
	}
	if r.ch != nil {
		if err := r.ch.beforeTick(); err != nil {
			return err
		}
	}
	return r.d.tick(r.off(), &r.feed.ticks[ti])
}

func (r *runner) drain() error {
	if r.d.drain == nil {
		return nil
	}
	r.d.calls++
	defer r.tr.span("Drain", 0)()
	return r.d.drain()
}

// laps pushes n whole laps back to back, then drains.
func (r *runner) laps(n int) error {
	for ; n > 0; n-- {
		for ti := range r.feed.ticks {
			if err := r.tick(ti); err != nil {
				return err
			}
		}
		r.lap++
	}
	return r.drain()
}

// produced is the number of results of the verified query set so far.
// Call it after a drain.
func (r *runner) produced() int64 {
	if r.snk != nil {
		return r.snk.n
	}
	return r.d.total()
}

// calls is every call made into the program under test so far.
func (r *runner) calls() int64 {
	n := r.d.calls
	if r.ch != nil {
		n += r.ch.calls
	}
	return n
}

// build sets the deployment up once, timing it from "query set in hand"
// to "first push accepted".
func build(w *workload, in *inputs) (*deployment, *sink, float64, error) {
	var snk *sink
	var o buildOpts
	if !w.sharded {
		snk = &sink{}
		o.onResult = snk.onResult
	}
	runtime.GC() // so one build does not pay for collecting the last
	t0 := time.Now()
	d, err := w.build(in, o)
	return d, snk, time.Since(t0).Seconds(), err
}

func newRunner(w *workload, in *inputs, d *deployment, snk *sink) *runner {
	r := &runner{d: d, feed: in.feed, snk: snk}
	if w.churn {
		r.ch = &churner{sys: d.sys, pool: in.live}
	}
	return r
}

// waitUntil spins until the monotonic clock since base reaches due, and
// returns the clock. It never sleeps: on the reference host a sleeping
// generator wakes up to 20 ms late, and the lateness would be charged to
// the system as latency.
func waitUntil(base time.Time, due time.Duration) time.Duration {
	for {
		if now := time.Since(base); now >= due {
			return now
		}
	}
}

// pacedRep offers n whole laps at the workload's fixed rate. Each tick is
// timed from the moment it was due, so a stall is charged to every tick
// it delays; lateness is how long after its due time a tick's first push
// began.
func (r *runner) pacedRep(n int, rate float64) (lat, late []float64, err error) {
	interval := time.Duration(float64(tickEvents) / rate * float64(time.Second))
	ticks := n * len(r.feed.ticks)
	lat = make([]float64, 0, ticks)
	late = make([]float64, 0, ticks)
	base := time.Now()
	i := 0
	for ; n > 0; n-- {
		for ti := range r.feed.ticks {
			due := time.Duration(i) * interval
			begin := waitUntil(base, due)
			if err := r.tick(ti); err != nil {
				return nil, nil, err
			}
			if err := r.drain(); err != nil {
				return nil, nil, err
			}
			end := time.Since(base)
			lat = append(lat, float64(end-due)/float64(time.Microsecond))
			late = append(late, float64(begin-due)/float64(time.Microsecond))
			i++
		}
		r.lap++
	}
	return lat, late, nil
}

func lapsFor(seconds, lapSeconds float64) int {
	n := int(math.Round(seconds / lapSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// runWorkload measures one workload with tracing and telemetry off.
func runWorkload(w *workload, seed int64, seconds float64, sc scale) (*result, error) {
	started := time.Now()
	res, in, err := begin(w, seed, sc)
	if err != nil || res.Unresolved != "" {
		return res, err
	}
	res.Metrics = make(map[string]stat)
	heap0 := liveHeap()

	// Set-up, several fresh builds; the last one is measured.
	var d *deployment
	var snk *sink
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < sc.setupReps && (i < minSetupReps || time.Since(setupStart) < setupFor); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		var s float64
		if d, snk, s, err = build(w, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	defer func() { _ = d.close() }()
	r := newRunner(w, in, d, snk)

	// The harness's own allocations: the same copies into no-op sinks.
	dry := dryPusher(d.mode)
	m0 := mallocs()
	for ti := range in.feed.ticks {
		_ = dry.tick(0, &in.feed.ticks[ti])
	}
	harnessAllocs := float64(mallocs()-m0) / float64(in.feed.events)

	// Lap 0: the verified ticks, checked against the oracle, then the rest
	// of the lap as warm-up.
	vt := w.verifyTicks(in, sc)
	exp, err := oracleFor(in, vt)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for ti := 0; ti < vt; ti++ {
		if err := r.tick(ti); err != nil {
			return nil, err
		}
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	var got *sink
	if snk != nil {
		c := *snk
		got = &c
	}
	checked, bad, notes := verify(d, got, exp)
	res.Attempted += int64(checked)
	res.Failed += int64(bad)
	res.Notes = append(res.Notes, notes...)
	res.counts = make(map[string]int64, len(exp.counts))
	for q := range exp.counts {
		res.counts[q] = d.count(q)
	}
	for ti := vt; ti < len(in.feed.ticks); ti++ {
		if err := r.tick(ti); err != nil {
			return nil, err
		}
	}
	r.lap++
	if err := r.drain(); err != nil {
		return nil, err
	}

	// Lap 1 settles the state every later lap starts from; it sizes the
	// reps and fixes the result total every later lap must reproduce.
	before := r.produced()
	t0 := time.Now()
	if err := r.laps(1); err != nil {
		return nil, err
	}
	lapSeconds := time.Since(t0).Seconds()
	perLap := r.produced() - before

	// Saturation phase, closed loop.
	satLaps := lapsFor(seconds/2/float64(sc.satReps), lapSeconds)
	var rates, allocs, heaps []float64
	for rep := 0; rep < sc.satReps; rep++ {
		before := r.produced()
		m0 := mallocs()
		t0 := time.Now()
		if err := r.laps(satLaps); err != nil {
			return nil, err
		}
		dt := time.Since(t0).Seconds()
		events := float64(satLaps * in.feed.events)
		rates = append(rates, events/dt)
		allocs = append(allocs, float64(mallocs()-m0)/events-harnessAllocs)
		res.checkLaps(r, "saturation", satLaps, before, perLap)
		// What is retained depends on where the pools and the WAL stand
		// at the moment of asking: ask a few times, between reps.
		if rep%4 == 3 || rep == sc.satReps-1 {
			heaps = append(heaps, (float64(liveHeap())-float64(heap0))/(1<<20))
		}
	}

	// Paced phase, open loop at the fixed rate.
	pacedLaps := lapsFor(seconds/2/float64(sc.pacedReps), float64(in.feed.events)/w.pacedRate)
	var p50s, p99s []float64
	for rep := 0; rep < sc.pacedReps; rep++ {
		before := r.produced()
		lat, _, err := r.pacedRep(pacedLaps, w.pacedRate)
		if err != nil {
			return nil, err
		}
		res.countTicks(lat)
		s := sortedCopy(lat)
		p50s = append(p50s, percentile(s, 50))
		p99s = append(p99s, percentile(s, 99))
		res.checkLaps(r, "paced", pacedLaps, before, perLap)
	}

	res.Attempted += r.calls()
	res.Correct = res.Failed == 0
	res.Metrics["events_per_s"] = summarize(rates, "events/s")
	res.Metrics["push_to_result_p50_us"] = summarize(p50s, "us")
	res.Metrics["push_to_result_p99_us"] = summarize(p99s, "us")
	res.Metrics["setup_s"] = summarize(setups, "s")
	res.Metrics["allocs_per_event"] = summarize(allocs, "allocs/event")
	res.Metrics["live_heap_mb"] = summarize(heaps, "MiB")
	res.Metrics["failed_frac"] = summarize([]float64{float64(res.Failed) / float64(res.Attempted)}, "ratio")
	res.Constants = runConstants{
		PacedRate: w.pacedRate, LapEvents: in.feed.events, Queries: len(exp.counts),
		SatReps: sc.satReps, SatLaps: satLaps, PacedReps: sc.pacedReps, PacedLaps: pacedLaps,
		SetupReps: len(setups), VerifiedTicks: vt, ResultsPerLap: perLap,
	}
	res.Seconds = time.Since(started).Seconds()
	return res, nil
}
