package wire

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mop"
)

// Checkpoint envelope: one self-contained snapshot of a running system —
// the plan, the partition plan with its routing-table version, per-query
// result counters, frozen counts of removed queries, and the per-shard,
// per-group timestamp-ordered state payloads.
//
// Framing: 8-byte magic, format-version uvarint, body-length uvarint, body.
// The body is a tagged message, so fields added later are skipped by old
// readers of the same format version.

// Magic identifies a RUMOR checkpoint stream.
const Magic = "RUMORCKP"

// FormatVersion is the current checkpoint format version.
const FormatVersion = 1

// GroupState is the serialized state of one (shard, state group, side).
type GroupState struct {
	Shard   int
	OpID    int
	Payload *mop.StatePayload
}

// QueryCount carries one live query's result counter.
type QueryCount struct {
	ID    int
	Count int64
}

// NamedCount carries one removed query's frozen result counter.
type NamedCount struct {
	Name  string
	Count int64
}

// Checkpoint is the decoded envelope.
type Checkpoint struct {
	// Shards is the engine replica count the state payloads were exported
	// from (1 for a single-process system). Restore requires the same
	// shard count, because keyed payloads are recorded per replica.
	Shards int
	// Channels / ChannelMinStreams reproduce the optimizer options the
	// system was built with, so post-restore live churn behaves the same.
	Channels          bool
	ChannelMinStreams int

	Plan      *core.PlanSnapshot
	Partition *core.PartitionPlan // nil for unsharded systems

	Counts []QueryCount
	Frozen []NamedCount
	// FrozenByID carries the sharded runtime's query-ID-level frozen
	// counts (they survive routing-epoch rebases and must survive restore
	// the same way).
	FrozenByID []QueryCount
	Groups     []GroupState
}

// envelope body: 1=shards 2=channels 3=channelMinStreams 4=plan
//                5=partition 6=count 7=frozen 8=group 9=frozenByID
// group:         1=shard 2=opID 3=payload

// EncodeCheckpointBytes encodes the envelope body (no framing).
func EncodeCheckpointBytes(c *Checkpoint) ([]byte, error) {
	var b Buffer
	b.PutVarintField(1, int64(c.Shards))
	b.PutBoolField(2, c.Channels)
	b.PutVarintField(3, int64(c.ChannelMinStreams))
	if c.Plan != nil {
		plan, err := EncodePlanBytes(c.Plan)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(4, plan)
	}
	if c.Partition != nil {
		part, err := EncodePartitionBytes(c.Partition)
		if err != nil {
			return nil, err
		}
		b.PutBytesField(5, part)
	}
	for _, qc := range c.Counts {
		b.PutMsgField(6, func(sub *Buffer) {
			sub.PutVarintField(1, int64(qc.ID))
			sub.PutVarintField(2, qc.Count)
		})
	}
	for _, fc := range c.Frozen {
		b.PutMsgField(7, func(sub *Buffer) {
			sub.PutStringField(1, fc.Name)
			sub.PutVarintField(2, fc.Count)
		})
	}
	for _, gs := range c.Groups {
		b.PutMsgField(8, func(sub *Buffer) {
			sub.PutVarintField(1, int64(gs.Shard))
			sub.PutVarintField(2, int64(gs.OpID))
			EncodePayload(sub, 3, gs.Payload)
		})
	}
	for _, qc := range c.FrozenByID {
		b.PutMsgField(9, func(sub *Buffer) {
			sub.PutVarintField(1, int64(qc.ID))
			sub.PutVarintField(2, qc.Count)
		})
	}
	return b.Bytes(), nil
}

// DecodeCheckpointBytes decodes an envelope body.
func DecodeCheckpointBytes(p []byte) (*Checkpoint, error) {
	r := NewReader(p)
	c := &Checkpoint{}
	err := r.Fields(func(f, _ int) (err error) {
		var v int64
		var sub []byte
		var qc QueryCount
		switch f {
		case 1:
			c.Shards, err = r.Int()
		case 2:
			v, err = r.Varint()
			c.Channels = v != 0
		case 3:
			c.ChannelMinStreams, err = r.Int()
		case 4:
			if sub, err = r.Bytes(); err == nil {
				c.Plan, err = DecodePlanBytes(sub)
			}
		case 5:
			if sub, err = r.Bytes(); err == nil {
				c.Partition, err = DecodePartitionBytes(sub)
			}
		case 6:
			qc, err = decodeQueryCount(r)
			c.Counts = append(c.Counts, qc)
		case 9:
			qc, err = decodeQueryCount(r)
			c.FrozenByID = append(c.FrozenByID, qc)
		case 7:
			var fc NamedCount
			msg, err := r.Msg()
			if err != nil {
				return err
			}
			err = msg.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					fc.Name, err = msg.String()
				case 2:
					fc.Count, err = msg.Varint()
				}
				return err
			})
			c.Frozen = append(c.Frozen, fc)
			return err
		case 8:
			var gs GroupState
			msg, err := r.Msg()
			if err != nil {
				return err
			}
			err = msg.Fields(func(f, _ int) (err error) {
				switch f {
				case 1:
					gs.Shard, err = msg.Int()
				case 2:
					gs.OpID, err = msg.Int()
				case 3:
					gs.Payload, err = DecodePayload(msg)
				}
				return err
			})
			c.Groups = append(c.Groups, gs)
			return err
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

func decodeQueryCount(r *Reader) (QueryCount, error) {
	var qc QueryCount
	sub, err := r.Msg()
	if err != nil {
		return qc, err
	}
	err = sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			qc.ID, err = sub.Int()
		case 2:
			qc.Count, err = sub.Varint()
		}
		return err
	})
	return qc, err
}

// WriteCheckpoint frames and writes the envelope to w.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	body, err := EncodeCheckpointBytes(c)
	if err != nil {
		return err
	}
	var hdr Buffer
	hdr.b = append(hdr.b, Magic...)
	hdr.PutUvarint(FormatVersion)
	hdr.PutUvarint(uint64(len(body)))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadCheckpoint reads and decodes a framed envelope from r.
func ReadCheckpoint(rd io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(Magic) || string(raw[:len(Magic)]) != Magic {
		return nil, corrupt("bad checkpoint magic")
	}
	r := NewReader(raw[len(Magic):])
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("wire: unsupported checkpoint format version %d (have %d)", ver, FormatVersion)
	}
	body, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	return DecodeCheckpointBytes(body)
}

// ---------------------------------------------------------------------------
// Incremental mode: the churn-op log
// ---------------------------------------------------------------------------

// ChurnOp tags one live maintenance operation in the incremental log.
type ChurnOp uint8

// Churn operation tags.
const (
	ChurnAdd    ChurnOp = 1
	ChurnRemove ChurnOp = 2
)

// ChurnRecord is one live maintenance operation: the query name, its
// logical tree (adds only), and the fingerprint (FingerprintPlan) of the
// plan the operation left behind. The churn log holds one per operation,
// and a cluster worker receives one per operation to replay on its own
// plan; either replayer checks that it reached the same fingerprint.
type ChurnRecord struct {
	Op          ChurnOp
	Name        string
	Root        *core.Logical
	Fingerprint uint64
}

// record: 1=op 2=name 3=root 4=fingerprint

// AppendChurnRecord writes one length-prefixed record to w.
func AppendChurnRecord(w io.Writer, rec *ChurnRecord) error {
	var b Buffer
	b.PutVarintField(1, int64(rec.Op))
	b.PutStringField(2, rec.Name)
	if rec.Root != nil {
		root, err := encodeLogical(rec.Root)
		if err != nil {
			return err
		}
		b.PutBytesField(3, root)
	}
	b.PutVarintField(4, int64(rec.Fingerprint))
	var frame Buffer
	frame.PutUvarint(uint64(b.Len()))
	if _, err := w.Write(frame.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}

// ReadChurnLog reads every record from r until EOF.
func ReadChurnLog(rd io.Reader) ([]*ChurnRecord, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	r := NewReader(raw)
	var out []*ChurnRecord
	for !r.Done() {
		body, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		rec := &ChurnRecord{}
		sub := NewReader(body)
		err = sub.Fields(func(f, _ int) (err error) {
			var v int64
			var p []byte
			switch f {
			case 1:
				v, err = sub.Varint()
				rec.Op = ChurnOp(v)
			case 2:
				rec.Name, err = sub.String()
			case 3:
				if p, err = sub.Bytes(); err == nil {
					rec.Root, err = decodeLogical(p, 0)
				}
			case 4:
				v, err = sub.Varint()
				rec.Fingerprint = uint64(v)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		switch {
		case rec.Op != ChurnAdd && rec.Op != ChurnRemove:
			return nil, corrupt("unknown churn op %d", rec.Op)
		case rec.Op == ChurnAdd && rec.Root == nil:
			return nil, corrupt("add of %q without a logical tree", rec.Name)
		}
		out = append(out, rec)
	}
	return out, nil
}
