package bench

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/workload"
)

// sweep measures one figure: for each x it runs measure and appends the
// two series values, labelling the point with xfmt. A figure needs at
// least one query, so cfg.MaxQueries below 1 is an error.
func sweep[X int | float64](cfg Config, res *Result, xs []X, xfmt string, measure func(x X) (a, b float64, err error)) (*Result, error) {
	if cfg.MaxQueries < 1 {
		return nil, fmt.Errorf("bench: figure %s: MaxQueries must be at least 1, got %d", res.Figure, cfg.MaxQueries)
	}
	for _, x := range xs {
		a, b, err := measure(x)
		if err != nil {
			return nil, fmt.Errorf("bench: figure %s at %s=%v: %w", res.Figure, res.XLabel, x, err)
		}
		res.Points = append(res.Points, Point{X: fmt.Sprintf(xfmt, x), A: a, B: b})
	}
	return res, nil
}

// fig9 runs one sweep of RUMOR query plans against Cayuga automata over
// the same events, normalized (§5.2, Figures 9 and 10(a,b)): vary sets the
// swept parameter to x, and queries draws the query set.
func fig9[X int | float64](cfg Config, res *Result, xs []X, xfmt string, vary func(x X, p *workload.Params), queries func(workload.Params) []*automaton.Query) (*Result, error) {
	res.ALabel, res.BLabel = "RUMOR plan", "Cayuga automata"
	res, err := sweep(cfg, res, xs, xfmt, func(x X) (float64, float64, error) {
		p := workload.DefaultParams()
		p.Seed = cfg.Seed
		vary(x, &p)
		aqs := queries(p)
		cqs, err := workload.ToRUMOR(aqs)
		if err != nil {
			return 0, 0, err
		}
		events := p.GenStreams(cfg.Tuples)
		return cfg.measureAB(
			func() (float64, error) { return rumorThroughput(p.Catalog(), cqs, events, false) },
			func() (float64, error) { return cayugaThroughput(p, aqs, events) })
	})
	if err != nil {
		return nil, err
	}
	res.normalize()
	return res, nil
}

func setQueries(x int, p *workload.Params) { p.NumQueries = x }

// Fig9a: Workload 1, varying the number of queries.
func (cfg Config) Fig9a() (*Result, error) {
	return fig9(cfg, &Result{Figure: "9(a)", Title: "Workload 1 (AN+FR index), varying number of queries", XLabel: "#queries"},
		cfg.capSweep([]int{1, 10, 100, 1000, 10000, 100000}), "%d", setQueries, workload.Params.Workload1)
}

// Fig9b: Workload 1, varying the constant domain size.
func (cfg Config) Fig9b() (*Result, error) {
	return fig9(cfg, &Result{Figure: "9(b)", Title: "Workload 1, varying constant domain size", XLabel: "const domain"},
		[]int{10, 100, 1000, 10000, 100000}, "%d",
		func(x int, p *workload.Params) { p.ConstDomain = x }, workload.Params.Workload1)
}

// Fig9c: Workload 1, varying the window-length domain size.
func (cfg Config) Fig9c() (*Result, error) {
	return fig9(cfg, &Result{Figure: "9(c)", Title: "Workload 1, varying window length domain size", XLabel: "window domain"},
		[]int{10, 100, 1000, 10000, 100000}, "%d",
		func(x int, p *workload.Params) { p.WindowDomain = x }, workload.Params.Workload1)
}

// Fig9d: Workload 1, varying the Zipf parameter.
func (cfg Config) Fig9d() (*Result, error) {
	return fig9(cfg, &Result{Figure: "9(d)", Title: "Workload 1, varying Zipf parameter", XLabel: "zipf"},
		[]float64{1.2, 1.4, 1.6, 1.8, 2.0}, "%.1f",
		func(z float64, p *workload.Params) { p.Zipf = z }, workload.Params.Workload1)
}

// Fig10a: Workload 2 (AI index), sequence queries.
func (cfg Config) Fig10a() (*Result, error) {
	return fig9(cfg, &Result{Figure: "10(a)", Title: "Workload 2 (AI index), varying number of ; queries", XLabel: "#queries"},
		cfg.capSweep([]int{1, 10, 100, 1000, 10000}), "%d", setQueries, workload.Params.Workload2Seq)
}

// Fig10b: Workload 2 (AI index), µ queries.
func (cfg Config) Fig10b() (*Result, error) {
	return fig9(cfg, &Result{Figure: "10(b)", Title: "Workload 2 (AI index), varying number of µ queries", XLabel: "#queries"},
		cfg.capSweep([]int{1, 10, 100, 1000, 10000}), "%d", setQueries, workload.Params.Workload2Mu)
}

// w3 measures one Workload 3 point with nq queries over a channel of
// capacity k, with vs without the channel.
func (cfg Config) w3(nq, k int) (withCh, withoutCh float64, err error) {
	p := workload.DefaultParams()
	p.Seed = cfg.Seed
	p.NumQueries = nq
	return cfg.measureAB(
		func() (float64, error) { return w3Throughput(p, k, cfg.Rounds, true) },
		func() (float64, error) { return w3Throughput(p, k, cfg.Rounds, false) })
}

// Fig10c: Workload 3, absolute throughput with vs without channels,
// varying the number of queries (§5.2, Figure 10(c)).
func (cfg Config) Fig10c() (*Result, error) {
	const k = 10 // default channel capacity (10 sharable streams, §5.2)
	return sweep(cfg, &Result{
		Figure: "10(c)", Title: "Workload 3, sequence queries with vs without channel",
		XLabel: "#queries", ALabel: "Seq with channel", BLabel: "Seq w/o channel",
	}, cfg.capSweep([]int{1, 10, 100, 1000, 10000}), "%d",
		func(x int) (float64, float64, error) { return cfg.w3(x, min(k, x)) })
}

// Fig10d: Workload 3, varying the channel capacity (number of sharable
// streams encoded by the channel).
func (cfg Config) Fig10d() (*Result, error) {
	nq := min(1000, cfg.MaxQueries)
	return sweep(cfg, &Result{
		Figure: "10(d)", Title: "Workload 3, varying channel capacity",
		XLabel: "capacity", ALabel: "Seq with channel", BLabel: "Seq w/o channel",
	}, []int{5, 10, 15, 20, 25}, "%d",
		func(k int) (float64, float64, error) { return cfg.w3(nq, k) })
}

// fig11 measures the hybrid workload over the D1-style trace.
func (cfg Config) fig11(n int, sel float64) (withCh, withoutCh float64, err error) {
	events := workload.D1(cfg.TraceSeconds).Events()
	qs := workload.DefaultHybrid(n, sel).Queries()
	return cfg.measureAB(
		func() (float64, error) { return rumorThroughput(workload.PerfCatalog(), qs, events, true) },
		func() (float64, error) { return rumorThroughput(workload.PerfCatalog(), qs, events, false) })
}

// Fig11a: hybrid queries on the D1-style trace, sel = 0.5, varying the
// number of queries (§5.3, Figure 11(a)). Each query monitors all
// processes, i.e. corresponds to 104 instances of Query 2.
func (cfg Config) Fig11a() (*Result, error) {
	return sweep(cfg, &Result{
		Figure: "11(a)", Title: "Hybrid queries on perfmon trace (sel=0.5), varying number of queries",
		XLabel: "#queries", ALabel: "Hybrid with channel", BLabel: "Hybrid w/o channel",
	}, []int{5, 10, 15, 20, 25}, "%d",
		func(n int) (float64, float64, error) { return cfg.fig11(n, 0.5) })
}

// Fig11b: hybrid queries, n = 10, varying the starting-condition
// selectivity (§5.3, Figure 11(b)).
func (cfg Config) Fig11b() (*Result, error) {
	return sweep(cfg, &Result{
		Figure: "11(b)", Title: "Hybrid queries (n=10), varying starting-condition selectivity",
		XLabel: "selectivity", ALabel: "Hybrid with channel", BLabel: "Hybrid w/o channel",
	}, []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0}, "%.1f",
		func(sel float64) (float64, float64, error) { return cfg.fig11(10, sel) })
}

// figures is every figure in print order, by its rumorbench name.
var figures = []struct {
	name string
	run  func(Config) (*Result, error)
}{
	{"9a", Config.Fig9a}, {"9b", Config.Fig9b}, {"9c", Config.Fig9c}, {"9d", Config.Fig9d},
	{"10a", Config.Fig10a}, {"10b", Config.Fig10b}, {"10c", Config.Fig10c}, {"10d", Config.Fig10d},
	{"11a", Config.Fig11a}, {"11b", Config.Fig11b},
}

// All runs every figure in order.
func (cfg Config) All() ([]*Result, error) {
	var out []*Result
	for _, f := range figures {
		r, err := f.run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByName returns the runner for a figure name like "9a" or "11b".
func (cfg Config) ByName(name string) (func() (*Result, error), bool) {
	for _, f := range figures {
		if f.name == name {
			return func() (*Result, error) { return f.run(cfg) }, true
		}
	}
	return nil, false
}
