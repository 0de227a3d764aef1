package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterGating(t *testing.T) {
	Enable(false)
	var h Histogram
	h.Observe(5)
	if got := h.Data().Count; got != 0 {
		t.Fatalf("disabled histogram counted: %d", got)
	}
	Enable(true)
	defer Enable(false)
	h.Observe(5)
	h.Observe(2)
	if d := h.Data(); d.Count != 2 || d.Sum != 7 {
		t.Fatalf("histogram count %d sum %d, want 2 and 7", d.Count, d.Sum)
	}
}

func TestGaugeSetMax(t *testing.T) {
	s := NewSnapshot()
	s.MaxGauge("g", 10)
	s.MaxGauge("g", 3)
	if got := s.Gauges["g"]; got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	s.SetGauge("g", 4)
	if got := s.Gauges["g"]; got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	Enable(true)
	defer Enable(false)
	var h Histogram
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 40, NumBuckets - 1}, {1<<62 + 1, NumBuckets - 1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	d := h.Data()
	if d.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", d.Count, len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if d.Sum != sum {
		t.Fatalf("sum = %d, want %d", d.Sum, sum)
	}
	want := make(map[int]int64)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, n := range d.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	// Bounds are consistent with bucketing: every value lands in the
	// first bucket whose bound covers it.
	for _, c := range cases {
		if c.bucket == NumBuckets-1 {
			continue
		}
		if b := BucketBound(c.bucket); c.v > b {
			t.Fatalf("value %d above its bucket %d bound %d", c.v, c.bucket, b)
		}
		if c.bucket > 0 && c.v <= BucketBound(c.bucket-1) {
			t.Fatalf("value %d fits bucket %d already", c.v, c.bucket-1)
		}
	}
}

// TestInstrumentAllocs is the obs-core half of the overhead guard: enabled
// instruments must not allocate, ever — the hot path's alloc profile with
// telemetry on must stay bit-identical to telemetry off.
func TestInstrumentAllocs(t *testing.T) {
	Enable(true)
	defer Enable(false)
	var h Histogram
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		h.Observe(v)
	})
	if allocs != 0 {
		t.Fatalf("enabled instruments allocate: %v allocs/op", allocs)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("histogram not interned")
	}
	Enable(true)
	defer Enable(false)
	r.Histogram("c").Observe(5)
	s := NewSnapshot()
	r.Into(s)
	if s.Hists["c"].Count != 1 {
		t.Fatalf("Into mismatch: %+v", s)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewSnapshot()
	a.AddCounter("c", 3)
	a.SetGauge("g", 10)
	a.AddHist("h", HistData{Count: 2, Sum: 6, Buckets: [NumBuckets]int64{2: 2}})

	b := NewSnapshot()
	b.AddCounter("c", 4)
	b.AddCounter("only_b", 1)
	b.SetGauge("g", 7)
	b.AddHist("h", HistData{Count: 1, Sum: 9, Buckets: [NumBuckets]int64{4: 1}})

	a.Merge(b)
	if a.Counters["c"] != 7 || a.Counters["only_b"] != 1 {
		t.Fatalf("counter merge: %+v", a.Counters)
	}
	if a.Gauges["g"] != 10 {
		t.Fatalf("gauge merge should keep max: %+v", a.Gauges)
	}
	h := a.Hists["h"]
	if h.Count != 3 || h.Sum != 15 || h.Buckets[2] != 2 || h.Buckets[4] != 1 {
		t.Fatalf("hist merge: %+v", h)
	}
	a.Merge(nil) // no-op
}

func TestTraceRingWraparound(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 100; i++ {
		r.Record(EvDeltaApply, fmt.Sprintf("op %d", i), time.Duration(i))
	}
	evs := r.Events()
	if total := evs[len(evs)-1].Seq; total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := int64(93 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Detail != fmt.Sprintf("op %d", wantSeq-1) {
			t.Fatalf("event %d detail = %q", i, ev.Detail)
		}
	}
	// Partially-filled ring returns only what was recorded.
	r2 := NewRing(8)
	r2.Record(EvLinkUp, "x", 0)
	if evs := r2.Events(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("partial ring events: %+v", evs)
	}
	// Degenerate capacity clamps to 1.
	r3 := NewRing(0)
	r3.Record(EvLinkUp, "a", 0)
	r3.Record(EvLinkDown, "b", 0)
	if evs := r3.Events(); len(evs) != 1 || evs[0].Kind != EvLinkDown {
		t.Fatalf("clamped ring events: %+v", evs)
	}
}

// TestTraceRingConcurrent hammers the ring from many writers and checks
// the invariants that must survive any interleaving: total equals the
// number of records, retained events have strictly increasing unique
// seqs, and the retained window is the most recent len(buf) seqs.
func TestTraceRingConcurrent(t *testing.T) {
	const (
		writers = 8
		each    = 500
		cap     = 64
	)
	r := NewRing(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(EvRebalance, fmt.Sprintf("w%d-%d", w, i), time.Duration(i))
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != cap {
		t.Fatalf("retained %d, want %d", len(evs), cap)
	}
	total := evs[len(evs)-1].Seq
	if total != writers*each {
		t.Fatalf("total = %d, want %d", total, writers*each)
	}
	for i, ev := range evs {
		wantSeq := total - int64(cap) + int64(i) + 1
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Kind != EvRebalance || ev.Detail == "" {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
	}
}
