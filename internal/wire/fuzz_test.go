package wire_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mop"
	"repro/internal/wire"
)

// Fuzz property: arbitrary bytes must decode-or-error — never panic, never
// hang. Seeds are valid encodings so mutation explores near-valid inputs
// (truncated fields, flipped tags, oversized lengths), the region where
// bounds bugs live.

func payloadSeeds(f *testing.F) {
	for _, kind := range []uint8{mop.WireKindAgg, mop.WireKindJoin, mop.WireKindSeq, mop.WireKindMu} {
		pl, err := mop.NewStatePayload(kind, 0, kindItems(kind))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire.EncodePayloadBytes(pl))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
}

func FuzzDecodePayload(f *testing.F) {
	payloadSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		pl, err := wire.DecodePayloadBytes(raw)
		if err != nil {
			return
		}
		// A successful decode must yield a payload whose view is safe to
		// walk and re-encode.
		wire.EncodePayloadBytes(pl)
	})
}

func FuzzReadCheckpoint(f *testing.F) {
	pl, err := mop.NewStatePayload(mop.WireKindAgg, 0, kindItems(mop.WireKindAgg))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteCheckpoint(&buf, &wire.Checkpoint{
		Shards:     2,
		Counts:     []wire.QueryCount{{ID: 1, Count: 5}},
		Frozen:     []wire.NamedCount{{Name: "x", Count: 1}},
		FrozenByID: []wire.QueryCount{{ID: 2, Count: 1}},
		Groups:     []wire.GroupState{{Shard: 1, OpID: 3, Payload: pl}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(wire.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := wire.ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if _, err := wire.EncodeCheckpointBytes(c); err != nil {
			t.Fatalf("decoded checkpoint failed to re-encode: %v", err)
		}
	})
}

func FuzzReadChurnLog(f *testing.F) {
	var buf bytes.Buffer
	if err := wire.AppendChurnRecord(&buf, &wire.ChurnRecord{
		Op: wire.ChurnAdd, Name: "q", Root: core.Scan("S"), Fingerprint: 1 << 63,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _ = wire.ReadChurnLog(bytes.NewReader(raw))
	})
}

// FuzzDecodePlan fuzzes the plan and partition decoders a worker runs on a
// coordinator's handshake: decoding never panics, every error wraps
// wire.ErrCorrupt, and a value that decodes re-encodes to bytes that
// decode and re-encode to the same bytes. The seeds are an optimized W2
// plan and a CQL plan, both with channels on, so mutations reach the
// predicate, expression, def and logical decoders, and a partition plan.
func FuzzDecodePlan(f *testing.F) {
	for _, s := range []*core.PlanSnapshot{w2Plan(f), cqlPlan(f)} {
		p, err := wire.EncodePlanBytes(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	part, err := wire.EncodePartitionBytes(goldenPartition())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(part)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, c := range []struct {
			name     string
			reencode func([]byte) ([]byte, error)
		}{
			{"plan", func(p []byte) ([]byte, error) {
				s, err := wire.DecodePlanBytes(p)
				if err != nil {
					return nil, err
				}
				return wire.EncodePlanBytes(s)
			}},
			{"partition", func(p []byte) ([]byte, error) {
				pp, err := wire.DecodePartitionBytes(p)
				if err != nil {
					return nil, err
				}
				return wire.EncodePartitionBytes(pp)
			}},
		} {
			enc, err := c.reencode(raw)
			if err != nil {
				if !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("%s: decode error %v does not wrap wire.ErrCorrupt", c.name, err)
				}
				continue
			}
			again, err := c.reencode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoded value does not decode: %v", c.name, err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("%s: re-encoded value decodes to a different value", c.name)
			}
		}
	})
}
