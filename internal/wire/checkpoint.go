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
	// Channels reproduces the optimizer option the system was built with,
	// so post-restore live churn behaves the same.
	Channels bool

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

func checkpointFields(c *Codec, ck *Checkpoint) {
	Varint(c, 1, &ck.Shards)
	c.Bool(2, &ck.Channels)
	// Field 3 (a channel stream threshold) is retired; a decoder skips it
	// in older checkpoints as an unknown field.
	Ptr(c, 4, &ck.Plan, planFields)
	if c.dec || ck.Partition != nil {
		Nested(c, 5, &ck.Partition, &partitionConv)
	}
	Msgs(c, 6, &ck.Counts, queryCountFields)
	Msgs(c, 7, &ck.Frozen, namedCountFields)
	Msgs(c, 8, &ck.Groups, groupStateFields)
	Msgs(c, 9, &ck.FrozenByID, queryCountFields)
}

func queryCountFields(c *Codec, qc *QueryCount) {
	Varint(c, 1, &qc.ID)
	Varint(c, 2, &qc.Count)
}

func namedCountFields(c *Codec, fc *NamedCount) {
	c.String(1, &fc.Name)
	Varint(c, 2, &fc.Count)
}

func groupStateFields(c *Codec, gs *GroupState) {
	Varint(c, 1, &gs.Shard)
	Varint(c, 2, &gs.OpID)
	Nested(c, 3, &gs.Payload, &payloadConv)
}

// A nil partition plan is absent (checkpointFields leaves it out); a nil
// payload is an empty message.
var (
	partitionConv = Conv[*core.PartitionPlan]{partitionFields, func(_ *Codec, p []byte) (*core.PartitionPlan, error) { return DecodePartitionBytes(p) }}
	payloadConv   = Conv[*mop.StatePayload]{PutPayload, func(_ *Codec, p []byte) (*mop.StatePayload, error) { return DecodePayloadBytes(p) }}
)

// EncodeCheckpointBytes encodes the envelope body (no framing).
func EncodeCheckpointBytes(c *Checkpoint) ([]byte, error) { return Marshal(c, checkpointFields) }

// DecodeCheckpointBytes decodes an envelope body.
func DecodeCheckpointBytes(p []byte) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := Unmarshal(p, c, checkpointFields); err != nil {
		return nil, err
	}
	return c, nil
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
// logical tree (adds only), and the fingerprint of the plan the operation
// left behind (core.(*Physical).Fingerprint, a walk of the plan). The
// churn log holds one per operation, and a cluster worker receives one per
// operation to replay on its own plan; either replayer checks that it
// reached the same fingerprint. The fingerprint is the build's own, so a
// churn log is replayed by the build that wrote it.
type ChurnRecord struct {
	Op          ChurnOp
	Name        string
	Root        *core.Logical
	Fingerprint uint64
}

// ChurnRecordFields declares a churn record: the body of one churn log
// entry, and a cluster churn call's record.
func ChurnRecordFields(c *Codec, rec *ChurnRecord) {
	Varint(c, 1, &rec.Op)
	c.String(2, &rec.Name)
	Ptr(c, 3, &rec.Root, logicalFields)
	Varint(c, 4, &rec.Fingerprint)
	Check(c, rec, func(rec *ChurnRecord) error {
		switch {
		case rec.Op != ChurnAdd && rec.Op != ChurnRemove:
			return corrupt("unknown churn op %d", rec.Op)
		case rec.Op == ChurnAdd && rec.Root == nil:
			return corrupt("add of %q without a logical tree", rec.Name)
		}
		return nil
	})
}

// AppendChurnRecord writes one length-prefixed record to w.
func AppendChurnRecord(w io.Writer, rec *ChurnRecord) error {
	body, err := Marshal(rec, ChurnRecordFields)
	if err != nil {
		return err
	}
	var frame Buffer
	frame.PutUvarint(uint64(len(body)))
	frame.Append(body)
	_, err = w.Write(frame.Bytes())
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
		if err := Unmarshal(body, rec, ChurnRecordFields); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
