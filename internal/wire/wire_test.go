package wire_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mop"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Round-trip property: for every stateHolder kind, encode → decode must
// reproduce the payload exactly — keys, timestamps, stored order, group
// labels, values, membership sets, tuples — and re-establish the seq
// aliasing invariant (an instance's state IS its start tuple).

func tup(ts int64, member *bitset.Set, vals ...int64) *stream.Tuple {
	return &stream.Tuple{TS: ts, Vals: vals, Member: member}
}

func kindItems(kind uint8) []mop.StateItem {
	switch kind {
	case mop.WireKindAgg:
		return []mop.StateItem{
			{Key: 7, TS: 10, Group: "g|7", Val: -3, Member: bitset.FromIndices(0, 2, 130)},
			{Key: 7, TS: 12, Group: "g|7", Val: 44, Member: bitset.FromIndices(1)},
			{Key: -9, TS: 12, Group: "", Val: 0, Member: nil},
		}
	case mop.WireKindJoin:
		return []mop.StateItem{
			{Key: 1, TS: 5, Tuple: tup(5, bitset.FromIndices(3), 1, -20, 300)},
			{Key: 2, TS: 6, Tuple: tup(6, nil)},
		}
	case mop.WireKindSeq:
		return []mop.StateItem{
			{Key: 4, TS: 20, Start: tup(20, bitset.FromIndices(0, 64), 4, 9), Member: bitset.FromIndices(0, 64)},
			{Key: 5, TS: 21, Start: tup(21, nil, 5), Member: bitset.FromIndices(2)},
		}
	case mop.WireKindMu:
		return []mop.StateItem{
			{Key: 8, TS: 30, Start: tup(30, nil, 8, 1), State: tup(33, nil, 8, 1, 99), Member: bitset.FromIndices(1, 5)},
		}
	}
	return nil
}

func eqSet(a, b *bitset.Set) bool {
	if a == nil || b == nil {
		return (a == nil || a.Empty()) && (b == nil || b.Empty())
	}
	return string(a.AppendKey(nil)) == string(b.AppendKey(nil))
}

func eqTuple(a, b *stream.Tuple) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.TS != b.TS || len(a.Vals) != len(b.Vals) || !eqSet(a.Member, b.Member) {
		return false
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

func TestPayloadRoundTripAllKinds(t *testing.T) {
	for _, kind := range []uint8{mop.WireKindAgg, mop.WireKindJoin, mop.WireKindSeq, mop.WireKindMu} {
		items := kindItems(kind)
		in, err := mop.NewStatePayload(kind, 1, items)
		if err != nil {
			t.Fatal(err)
		}
		raw := wire.EncodePayloadBytes(in)
		out, err := wire.DecodePayloadBytes(raw)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if out.Kind() != kind || out.Side() != 1 {
			t.Fatalf("kind %d: decoded kind=%d side=%d", kind, out.Kind(), out.Side())
		}
		got := out.Items()
		if len(got) != len(items) {
			t.Fatalf("kind %d: %d items, want %d", kind, len(got), len(items))
		}
		for i, want := range items {
			g := got[i]
			if g.Key != want.Key || g.TS != want.TS || g.Group != want.Group || g.Val != want.Val {
				t.Fatalf("kind %d item %d: %+v != %+v", kind, i, g, want)
			}
			if !eqSet(g.Member, want.Member) {
				t.Fatalf("kind %d item %d: member %v != %v", kind, i, g.Member, want.Member)
			}
			if !eqTuple(g.Tuple, want.Tuple) || !eqTuple(g.Start, want.Start) {
				t.Fatalf("kind %d item %d: tuple mismatch", kind, i)
			}
			switch kind {
			case mop.WireKindSeq:
				// The in-memory invariant: a `;` instance's state aliases
				// its start tuple; the codec must re-establish it.
				if g.State != g.Start {
					t.Fatalf("seq item %d: state not re-aliased to start", i)
				}
			case mop.WireKindMu:
				if g.State == g.Start {
					t.Fatalf("µ item %d: state aliased to start after decode", i)
				}
				if !eqTuple(g.State, want.State) {
					t.Fatalf("µ item %d: state mismatch", i)
				}
			}
		}
	}
}

func TestPayloadEmptyAndNil(t *testing.T) {
	out, err := wire.DecodePayloadBytes(wire.EncodePayloadBytes(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("nil payload decoded to %d items", out.Len())
	}
}

// Unknown tagged fields appended by a future writer must be skipped, not
// rejected — the codec is forward-compatible within a format version.
func TestPayloadSkipsUnknownFields(t *testing.T) {
	in, err := mop.NewStatePayload(mop.WireKindAgg, 0, kindItems(mop.WireKindAgg))
	if err != nil {
		t.Fatal(err)
	}
	raw := wire.EncodePayloadBytes(in)
	var extra wire.Buffer
	extra.PutVarintField(14, 12345)
	extra.PutStringField(15, "from the future")
	raw = append(raw, extra.Bytes()...)
	out, err := wire.DecodePayloadBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("%d items after unknown-field skip, want %d", out.Len(), in.Len())
	}
}

func TestPayloadCorruptInputErrors(t *testing.T) {
	in, _ := mop.NewStatePayload(mop.WireKindJoin, 0, kindItems(mop.WireKindJoin))
	raw := wire.EncodePayloadBytes(in)
	for cut := 1; cut < len(raw); cut += 3 {
		if _, err := wire.DecodePayloadBytes(raw[:cut]); err == nil {
			// Truncations that land on a field boundary can decode; they
			// must still yield a well-formed payload.
			continue
		}
	}
	if _, err := wire.DecodePayloadBytes([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestCheckpointEnvelopeRoundTrip(t *testing.T) {
	pl, err := mop.NewStatePayload(mop.WireKindMu, 1, kindItems(mop.WireKindMu))
	if err != nil {
		t.Fatal(err)
	}
	in := &wire.Checkpoint{
		Shards:     4,
		Channels:   true,
		Counts:     []wire.QueryCount{{ID: 0, Count: 12}, {ID: 7, Count: -1}},
		Frozen:     []wire.NamedCount{{Name: "old", Count: 99}},
		FrozenByID: []wire.QueryCount{{ID: 3, Count: 99}},
		Groups:     []wire.GroupState{{Shard: 2, OpID: 11, Payload: pl}},
	}
	var buf bytes.Buffer
	if err := wire.WriteCheckpoint(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := wire.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shards != in.Shards || out.Channels != in.Channels {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Counts) != 2 || out.Counts[1] != (wire.QueryCount{ID: 7, Count: -1}) {
		t.Fatalf("counts mismatch: %+v", out.Counts)
	}
	if len(out.Frozen) != 1 || out.Frozen[0] != (wire.NamedCount{Name: "old", Count: 99}) {
		t.Fatalf("frozen mismatch: %+v", out.Frozen)
	}
	if len(out.FrozenByID) != 1 || out.FrozenByID[0] != (wire.QueryCount{ID: 3, Count: 99}) {
		t.Fatalf("frozenByID mismatch: %+v", out.FrozenByID)
	}
	if len(out.Groups) != 1 || out.Groups[0].Shard != 2 || out.Groups[0].OpID != 11 ||
		out.Groups[0].Payload.Len() != 1 {
		t.Fatalf("groups mismatch: %+v", out.Groups)
	}
}

// withRetiredField3 frames c as a version that still wrote field 3 (a
// channel stream threshold) did, with the threshold at 3: fields 1 and 2,
// then field 3, then the rest.
func withRetiredField3(tb testing.TB, c *wire.Checkpoint) []byte {
	tb.Helper()
	body, err := wire.EncodeCheckpointBytes(c)
	if err != nil {
		tb.Fatal(err)
	}
	var ch int64
	if c.Channels {
		ch = 1
	}
	var head, parent, framed wire.Buffer
	head.PutVarintField(1, int64(c.Shards))
	head.PutVarintField(2, ch)
	if !bytes.HasPrefix(body, head.Bytes()) {
		tb.Fatal("checkpoint body does not open with fields 1 and 2")
	}
	parent.Append(head.Bytes())
	parent.PutVarintField(3, 3)
	parent.Append(body[head.Len():])
	framed.Append([]byte(wire.Magic))
	framed.PutUvarint(wire.FormatVersion)
	framed.PutUvarint(uint64(parent.Len()))
	framed.Append(parent.Bytes())
	return framed.Bytes()
}

// A checkpoint that carries the retired field 3 decodes to the checkpoint
// without it: the decoder skips the field as unknown.
func TestCheckpointSkipsRetiredField3(t *testing.T) {
	in := goldenCheckpoint(t)
	out, err := wire.ReadCheckpoint(bytes.NewReader(withRetiredField3(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.EncodeCheckpointBytes(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.EncodeCheckpointBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a checkpoint with field 3 decoded to another checkpoint than without it")
	}
}

func TestCheckpointBadFraming(t *testing.T) {
	if _, err := wire.ReadCheckpoint(bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := wire.WriteCheckpoint(&buf, &wire.Checkpoint{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := wire.ReadCheckpoint(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Future format version: refused, not misdecoded.
	bad := append([]byte(wire.Magic), 0x7f)
	if _, err := wire.ReadCheckpoint(bytes.NewReader(append(bad, raw[len(wire.Magic)+1:]...))); err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestChurnLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := []*wire.ChurnRecord{
		{Op: wire.ChurnAdd, Name: "q1", Root: core.Scan("S"), Fingerprint: 0x8000_0000_0000_0001},
		{Op: wire.ChurnRemove, Name: "q1", Fingerprint: 7},
	}
	for _, rec := range recs {
		if err := wire.AppendChurnRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	out, err := wire.ReadChurnLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d records, want 2", len(out))
	}
	if out[0].Op != wire.ChurnAdd || out[0].Name != "q1" || out[0].Root == nil ||
		out[0].Fingerprint != recs[0].Fingerprint {
		t.Fatalf("add record mismatch: %+v", out[0])
	}
	if out[1].Op != wire.ChurnRemove || out[1].Root != nil || out[1].Fingerprint != 7 {
		t.Fatalf("remove record mismatch: %+v", out[1])
	}
}

// Recursive messages decode up to 512 levels below their root and fail
// one level deeper, with an error naming the tree: a logical tree (its
// depth counted by the children field) and a predicate (by its nested
// operands).
func TestDecodeDepthLimits(t *testing.T) {
	chain := func(nodes int) *core.Logical {
		l := core.Scan("S")
		for range nodes - 1 {
			l = core.SelectL(expr.True{}, l)
		}
		return l
	}
	not := func(levels int) expr.Pred {
		var p expr.Pred = expr.True{}
		for range levels {
			p = expr.Not{P: p}
		}
		return p
	}
	for _, c := range []struct {
		name   string
		decode func() error
		deep   string
	}{
		{"logical", func() error {
			p, err := wire.EncodeLogical(chain(513))
			if err != nil {
				t.Fatal(err)
			}
			_, err = wire.DecodeLogical(p)
			return err
		}, ""},
		{"logical", func() error {
			p, err := wire.EncodeLogical(chain(514))
			if err != nil {
				t.Fatal(err)
			}
			_, err = wire.DecodeLogical(p)
			return err
		}, "logical tree too deep"},
		{"pred", func() error {
			p, err := wire.EncodePred(not(512))
			if err != nil {
				t.Fatal(err)
			}
			_, err = wire.DecodePred(p, 0)
			return err
		}, ""},
		{"pred", func() error {
			p, err := wire.EncodePred(not(513))
			if err != nil {
				t.Fatal(err)
			}
			_, err = wire.DecodePred(p, 0)
			return err
		}, "predicate nesting too deep"},
	} {
		err := c.decode()
		if c.deep == "" && err != nil {
			t.Fatalf("%s at the limit: %v", c.name, err)
		}
		if c.deep != "" && (!errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), c.deep)) {
			t.Fatalf("%s past the limit: %v, want %q", c.name, err, c.deep)
		}
	}
}
