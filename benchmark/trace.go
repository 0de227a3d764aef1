package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer's public function.
// Spans nest by Parent; spans of one feed window share its Tick.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	Tick   int    `json:"tick"` // -1 outside the lap loop
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // rows, results or calls covered
	// Sum marks a span that stands for N short calls: it starts with the
	// first and is as long as they took together. Est marks a duration
	// scaled up from 1-in-64 timed calls.
	Sum bool `json:"sum,omitempty"`
	Est bool `json:"est,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site; the
// traced run switches its tracer off for the laps it compares against.
type tracer struct {
	off   bool
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	tick  int

	// Result callbacks since the last push span closed: their count and an
	// estimate of the time spent in their bodies.
	cbN, cbNS int64
}

// maxTracedLaps caps the laps of one traced phase, which keeps a trace to
// tens of thousands of spans whatever the workload's speed.
const maxTracedLaps = 4

func newTracer() *tracer {
	return &tracer{t0: time.Now(), tick: -1, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func noop() {}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// span opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) span(name string, n int64) func() {
	if t == nil || t.off {
		return noop
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Tick: t.tick, Start: t.now(), N: n})
	t.open = append(t.open, id)
	return func() {
		end := t.now()
		t.spans[id-1].End = end
		t.open = t.open[:len(t.open)-1]
		if t.cbN > 0 {
			t.flushCallbacks(id, t.spans[id-1].Start)
		}
	}
}

// flushCallbacks records the result callbacks that ran since the last span
// closed as the child of the one closing now: callbacks run inside the
// innermost call (a push, or a live add replaying a window).
func (t *tracer) flushCallbacks(parent int, start int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: "OnResult", Tick: t.tick,
		Start: start, End: start + t.cbNS, N: t.cbN, Sum: true, Est: true})
	t.cbN, t.cbNS = 0, 0
}

// spanSum accumulates many short calls into one span.
type spanSum struct {
	t     *tracer
	name  string
	n     int64
	first int64
	total int64
}

func (t *tracer) sum(name string, n int64) *spanSum {
	if t == nil || t.off {
		return nil
	}
	return &spanSum{t: t, name: name, n: n, first: -1}
}

func (s *spanSum) start() int64 {
	if s == nil {
		return 0
	}
	now := s.t.now()
	if s.first < 0 {
		s.first = now
	}
	return now
}

func (s *spanSum) stop(t0 int64) {
	if s != nil {
		s.total += s.t.now() - t0
	}
}

func (s *spanSum) done() {
	if s == nil {
		return
	}
	t := s.t
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: s.name, Tick: t.tick,
		Start: s.first, End: s.first + s.total, N: s.n, Sum: true})
	if t.cbN > 0 {
		t.flushCallbacks(id, s.first)
	}
}

// callback wraps a result callback: it counts every call and times one in
// 64, which keeps the cost of observing the callback below its own.
func (t *tracer) callback(fn func(string, int64, []int64)) func(string, int64, []int64) {
	return func(q string, ts int64, vals []int64) {
		if t.off {
			fn(q, ts, vals)
			return
		}
		t.cbN++
		if t.cbN&63 != 0 {
			fn(q, ts, vals)
			return
		}
		t0 := t.now()
		fn(q, ts, vals)
		t.cbNS += (t.now() - t0) * 64
	}
}

// total is the summed duration of the spans of a name that started in
// [from, to).
func (t *tracer) total(name string, from, to int64) (ns int64) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Start >= from && s.Start < to {
			ns += s.End - s.Start
		}
	}
	return ns
}

// durations lists the durations in µs of the spans of a name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// selfTimes gives every span's duration minus the part of it its
// children cover, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	kids := make([][]int, len(t.spans)+1)
	for i := range t.spans {
		kids[t.spans[i].Parent] = append(kids[t.spans[i].Parent], i)
	}
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		// Children were appended in start order, except a flushed
		// OnResult child, which starts with its parent: sort to be sure.
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			c := &t.spans[k]
			if end := min(c.End, s.End); end > edge {
				covered += end - max(c.Start, edge)
				edge = end
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write saves the spans, with their self times, as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := t.selfTimes()
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{s, self[i]}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tapConn timestamps a connection's traffic and keeps the first frames
// written to it. The transport writes each frame with one Write call, so
// a captured write is one whole frame.
type tapConn struct {
	net.Conn
	clock      func() int64
	lastRead   int64 // when the latest Read returned
	firstWrite int64 // when the first Write since the last reset began
	readDone   int64 // lastRead as it stood at firstWrite
	written    int64
	frames     [][]byte
	keep       int
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead = c.clock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.firstWrite == 0 {
		c.firstWrite, c.readDone = c.clock(), c.lastRead
	}
	c.written += int64(len(p))
	if len(c.frames) < c.keep {
		c.frames = append(c.frames, append([]byte(nil), p...))
	}
	return c.Conn.Write(p)
}
