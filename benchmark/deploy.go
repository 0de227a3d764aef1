package main

import (
	"fmt"
	"net"
	"sync"

	rumor "repro"
	"repro/internal/transport"
)

// pushMode is how a workload hands a batch to the program under test.
type pushMode int

const (
	// pushCols calls PushColumns with the feed's own column slices;
	// System borrows them only until the call returns.
	pushCols pushMode = iota
	// pushColsOwned calls PushColumns with fresh copies: ShardedSystem
	// takes ownership of what it is given.
	pushColsOwned
	// pushRows calls Push once per row with a fresh value slice, which
	// System may retain in operator state.
	pushRows
)

// pusher turns feed ticks into calls. Everything it does besides the call
// itself (timestamp offsets, copies) is the harness's own cost; a pusher
// over no-op sinks measures exactly that cost.
type pusher struct {
	mode  pushMode
	cols  func(src string, ts []int64, cols [][]int64) error
	row   func(src string, ts int64, vals ...int64) error
	tsbuf [tickRows]int64
	calls int64
	tr    *tracer // nil outside the traced run
}

func (p *pusher) batch(off int64, cb *colBatch) error {
	n := len(cb.ts)
	switch p.mode {
	case pushCols:
		ts := p.tsbuf[:n]
		for i, t := range cb.ts {
			ts[i] = t + off
		}
		p.calls++
		defer p.tr.span("PushColumns", int64(n))()
		return p.cols(cb.src, ts, cb.cols)
	case pushColsOwned:
		backing := make([]int64, n*(len(cb.cols)+1))
		ts := backing[:n:n]
		for i, t := range cb.ts {
			ts[i] = t + off
		}
		cols := make([][]int64, len(cb.cols))
		for a, c := range cb.cols {
			cols[a] = backing[(a+1)*n : (a+2)*n : (a+2)*n]
			copy(cols[a], c)
		}
		p.calls++
		defer p.tr.span("PushColumns", int64(n))()
		return p.cols(cb.src, ts, cols)
	default:
		// One span per batch, as long as its Push calls took together:
		// a span per row would be most of what the trace measures.
		sum := p.tr.sum("Push", int64(n))
		for r, row := range cb.rows {
			vals := make([]int64, len(row))
			copy(vals, row)
			p.calls++
			t0 := sum.start()
			err := p.row(cb.src, cb.ts[r]+off, vals...)
			sum.stop(t0)
			if err != nil {
				return err
			}
		}
		sum.done()
		return nil
	}
}

func (p *pusher) tick(off int64, tk *tick) error {
	if err := p.batch(off, &tk[0]); err != nil {
		return err
	}
	return p.batch(off, &tk[1])
}

// dryPusher makes the same copies and calls as a real pusher of the mode,
// into sinks that do nothing.
func dryPusher(mode pushMode) *pusher {
	return &pusher{
		mode: mode,
		cols: func(string, []int64, [][]int64) error { return nil },
		row:  func(string, int64, ...int64) error { return nil },
	}
}

// buildOpts is what a build takes besides the query set.
type buildOpts struct {
	// onResult is the result callback of the checksummed workloads.
	onResult func(query string, ts int64, vals []int64)
	// tap, when set, wraps every coordinator→worker connection of a
	// cluster deployment (the traced run captures frames through it).
	tap func(net.Conn) net.Conn
}

// deployment is one built system, ready for its first push.
type deployment struct {
	pusher
	sys     *rumor.System        // single-engine workloads
	sharded *rumor.ShardedSystem // the W2 pair
	drain   func() error         // nil where results are out when Push returns
	total   func() int64
	count   func(query string) int64
	close   func() error
}

func declareST(declare func(name, label string, attrs ...string) error) error {
	for _, s := range []string{"S", "T"} {
		if err := declare(s, "", attrNames()...); err != nil {
			return err
		}
	}
	return nil
}

// buildSystem takes the query set (logical trees, or CQL text) to a System
// that accepts pushes.
func buildSystem(in *inputs, mode pushMode, channels bool, o buildOpts) (*deployment, error) {
	sys := rumor.New()
	if in.cql != "" {
		if err := sys.ExecScript(in.cql); err != nil {
			return nil, err
		}
	} else {
		if err := declareST(sys.DeclareStream); err != nil {
			return nil, err
		}
		for _, q := range in.queries {
			if err := sys.AddQuery(q.name, q.root); err != nil {
				return nil, err
			}
		}
	}
	if o.onResult != nil {
		sys.OnResult(o.onResult)
	}
	if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
		return nil, err
	}
	d := &deployment{sys: sys, total: sys.TotalResults, count: sys.ResultCount, close: func() error { return nil }}
	d.mode, d.cols, d.row = mode, sys.PushColumns, sys.Push
	return d, nil
}

// buildSharded takes the query set to a 2-shard ShardedSystem: in-process
// workers, or two shard workers behind in-process pipe listeners.
func buildSharded(in *inputs, cluster bool, o buildOpts) (*deployment, error) {
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2})
	if err := declareST(sys.DeclareStream); err != nil {
		return nil, err
	}
	for _, q := range in.queries {
		if err := sys.AddQuery(q.name, q.root); err != nil {
			return nil, err
		}
	}
	stopWorkers := func() {}
	if cluster {
		var wg sync.WaitGroup
		listeners := make([]*transport.PipeListener, 2)
		nodes := make([]rumor.ClusterNode, 2)
		for i := range nodes {
			lis := transport.NewPipeListener()
			listeners[i] = lis
			nodes[i] = rumor.ClusterNode{Dial: func() (net.Conn, error) {
				c, err := lis.Dial()
				if err == nil && o.tap != nil {
					c = o.tap(c)
				}
				return c, err
			}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Serve returns nil after the coordinator's shutdown, or
				// the Accept error once the listener is closed below.
				_ = rumor.ServeShard(lis)
			}()
		}
		stopWorkers = func() {
			for _, lis := range listeners {
				_ = lis.Close()
			}
			wg.Wait()
		}
		if err := sys.DialCluster(rumor.Options{}, rumor.ClusterConfig{Nodes: nodes}); err != nil {
			_ = sys.Close()
			stopWorkers()
			return nil, err
		}
	} else if err := sys.Optimize(rumor.Options{}); err != nil {
		return nil, err
	}
	d := &deployment{sharded: sys, drain: sys.Drain, total: sys.TotalResults, count: sys.ResultCount}
	d.mode, d.cols = pushColsOwned, sys.PushColumns
	d.close = func() error {
		err := sys.Close()
		stopWorkers()
		return err
	}
	return d, nil
}

// churner applies w1_churn's control-path load: at every churnEvery-th
// tick one AddQueryLive of the next pool query, and one RemoveQuery of the
// oldest live-added query once more than churnLive are registered.
type churner struct {
	sys   *rumor.System
	pool  []namedQuery
	next  int
	live  []string
	calls int64
	ticks int
	tr    *tracer
}

const (
	churnEvery = 32
	churnLive  = 8
)

func (c *churner) beforeTick() error {
	c.ticks++
	if c.ticks%churnEvery != 0 {
		return nil
	}
	q := c.pool[c.next%len(c.pool)]
	c.next++
	c.calls++
	end := c.tr.span("AddQueryLive", 1)
	err := c.sys.AddQueryLive(q.name, q.root)
	end()
	if err != nil {
		return fmt.Errorf("AddQueryLive %s: %w", q.name, err)
	}
	c.live = append(c.live, q.name)
	if len(c.live) <= churnLive {
		return nil
	}
	oldest := c.live[0]
	c.live = c.live[1:]
	c.calls++
	end = c.tr.span("RemoveQuery", 1)
	err = c.sys.RemoveQuery(oldest)
	end()
	if err != nil {
		return fmt.Errorf("RemoveQuery %s: %w", oldest, err)
	}
	return nil
}
