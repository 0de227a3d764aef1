package core

import (
	"testing"

	"repro/internal/expr"
)

// buildSelChannel plans n selection queries over S and encodes their
// outputs into one channel, returning the plan and the queries.
func buildSelChannel(t *testing.T, n int) (*Physical, []*Query) {
	t.Helper()
	p := NewPhysical(testCatalog())
	qs := make([]*Query, n)
	var streams []*StreamRef
	for i := range qs {
		q := NewQuery("q", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(i)}, Scan("S")))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs[i] = q
		streams = append(streams, p.OutputOf(q.ID))
	}
	if _, err := p.EncodeChannel(streams); err != nil {
		t.Fatal(err)
	}
	return p, qs
}

func TestCompactChannels(t *testing.T) {
	p, qs := buildSelChannel(t, 4)
	if err := p.BeginDelta(); err != nil {
		t.Fatal(err)
	}
	// One removal tombstones a slot but stays above the compaction
	// threshold (3 live of 4).
	if err := p.RemoveQuery(qs[1].ID); err != nil {
		t.Fatal(err)
	}
	if n := p.CompactChannels(); n != 0 {
		t.Fatalf("compacted %d edges at 3/4 live; threshold is live*2 < total", n)
	}
	// Two more removals leave 1 live of 4: compaction must fire, pack the
	// survivor down, and keep one scrubbed tombstone for channel-ness.
	if err := p.RemoveQuery(qs[2].ID); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveQuery(qs[3].ID); err != nil {
		t.Fatal(err)
	}
	if n := p.CompactChannels(); n != 1 {
		t.Fatalf("compacted %d edges, want 1", n)
	}
	d := p.TakeDelta()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	out := p.OutputOf(qs[0].ID)
	e, pos := p.EdgeOf(out)
	if len(e.Streams) != 2 || e.LiveStreams() != 1 {
		t.Fatalf("compacted edge has %d slots (%d live), want 2 (1 live)", len(e.Streams), e.LiveStreams())
	}
	if pos != 0 {
		t.Fatalf("survivor packed to position %d, want 0", pos)
	}
	if !e.IsChannel() {
		t.Fatal("compacted edge lost channel-ness")
	}
	st := p.Stats()
	if st.LiveSlots != 1 || st.TotalSlots != 2 {
		t.Fatalf("slot stats %d/%d, want 1/2", st.LiveSlots, st.TotalSlots)
	}

	if len(d.Remaps) != 1 {
		t.Fatalf("delta records %d remaps, want 1", len(d.Remaps))
	}
	cr := d.Remaps[0]
	if cr.EdgeID != e.ID {
		t.Fatalf("remap edge %d, want %d", cr.EdgeID, e.ID)
	}
	// Old slot 0 (survivor) packs to 0; every tombstoned slot drops its
	// bits (-1), including the one kept for channel-ness.
	want := []int{0, -1, -1, -1}
	if len(cr.Table) != len(want) {
		t.Fatalf("remap table %v, want %v", cr.Table, want)
	}
	for i, np := range want {
		if cr.Table[i] != np {
			t.Fatalf("remap table %v, want %v", cr.Table, want)
		}
	}
	// The producer of the surviving stream must be re-lowered.
	if !d.Dirty[out.Producer.Node.ID] {
		t.Fatal("compaction did not dirty the surviving stream's producer")
	}
}

func TestEncodeChannelSlotReuse(t *testing.T) {
	p, qs := buildSelChannel(t, 3)
	if err := p.BeginDelta(); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveQuery(qs[1].ID); err != nil {
		t.Fatal(err)
	}
	if p.CompactChannels() != 0 {
		t.Fatal("2/3 live must not compact")
	}
	// A live add whose fresh stream joins the channel must land in the
	// tombstoned slot instead of widening the edge.
	q := NewQuery("q_new", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 9}, Scan("S")))
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	out := p.OutputOf(q.ID)
	old, _ := p.EdgeOf(p.OutputOf(qs[0].ID))
	oldID := old.ID
	all := append([]*StreamRef{}, old.Streams...)
	all = append(all, out)
	ch, err := p.EncodeChannel(all)
	if err != nil {
		t.Fatal(err)
	}
	d := p.TakeDelta()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ch.Streams) != 3 || ch.LiveStreams() != 3 {
		t.Fatalf("reuse produced %d slots (%d live), want 3 (3 live)", len(ch.Streams), ch.LiveStreams())
	}
	if e, pos := p.EdgeOf(out); e != ch || pos != 1 {
		t.Fatalf("new stream landed at position %d, want the tombstoned slot 1", pos)
	}
	if len(d.Remaps) != 1 {
		t.Fatalf("delta records %d remaps, want 1 (the scrub)", len(d.Remaps))
	}
	cr := d.Remaps[0]
	if cr.EdgeID != oldID {
		t.Fatalf("scrub recorded against edge %d, want the pre-rewrite edge %d", cr.EdgeID, oldID)
	}
	want := []int{0, -1, 2}
	for i, np := range want {
		if cr.Table[i] != np {
			t.Fatalf("scrub table %v, want %v", cr.Table, want)
		}
	}
	if !d.NewStreams[out.ID] {
		t.Fatal("delta lost the fresh stream (replay depends on NewStreams)")
	}
}
