package wire

import (
	"repro/internal/bitset"
	"repro/internal/mop"
	"repro/internal/stream"
)

// State payload codec: the serialized form of one (state group, side)
// export — the unit of state transport between shards and the bulk of a
// checkpoint. Kind codes are mop's wire-stable constants.
//
// payload:  1=kind 2=side 3=item (repeated)
// item:     1=key 2=ts 3=group 4=val 5=member 6=tuple 7=start 8=state
// tuple:    1=ts 2=vals(packed) 3=member
// member:   packed bit indices

func putMember(b *Buffer, field int, m *bitset.Set) {
	if m == nil {
		return
	}
	b.PutIntsField(field, m.Indices())
}

func readMember(r *Reader) (*bitset.Set, error) {
	idx, err := r.Ints()
	if err != nil {
		return nil, err
	}
	for _, i := range idx {
		if i < 0 || i > 1<<20 {
			return nil, corrupt("bit index %d out of range", i)
		}
	}
	return bitset.FromIndices(idx...), nil
}

func putTuple(b *Buffer, field int, t *stream.Tuple) {
	if t == nil {
		return
	}
	b.PutMsgField(field, func(sub *Buffer) {
		sub.PutVarintField(1, t.TS)
		sub.PutInt64sField(2, t.Vals)
		putMember(sub, 3, t.Member)
	})
}

func readTuple(r *Reader) (*stream.Tuple, error) {
	sub, err := r.Msg()
	if err != nil {
		return nil, err
	}
	t := &stream.Tuple{}
	err = sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			t.TS, err = sub.Varint()
		case 2:
			t.Vals, err = sub.Int64s()
		case 3:
			t.Member, err = readMember(sub)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// EncodePayload appends the payload as a tagged message field. A nil or
// empty payload encodes as an empty message.
func EncodePayload(b *Buffer, field int, p *mop.StatePayload) {
	b.PutMsgField(field, func(sub *Buffer) { encodePayloadInto(sub, p) })
}

func encodePayloadInto(b *Buffer, p *mop.StatePayload) {
	if p == nil {
		return
	}
	b.PutVarintField(1, int64(p.Kind()))
	b.PutVarintField(2, int64(p.Side()))
	for _, item := range p.Items() {
		b.PutMsgField(3, func(ib *Buffer) {
			ib.PutVarintField(1, item.Key)
			ib.PutVarintField(2, item.TS)
			if item.Group != "" {
				ib.PutStringField(3, item.Group)
			}
			if item.Val != 0 {
				ib.PutVarintField(4, item.Val)
			}
			putMember(ib, 5, item.Member)
			putTuple(ib, 6, item.Tuple)
			putTuple(ib, 7, item.Start)
			// State aliases Start for seq instances; only µ instances
			// carry distinct accumulated state.
			if item.State != nil && item.State != item.Start {
				putTuple(ib, 8, item.State)
			}
		})
	}
}

// DecodePayload reads a payload encoded by EncodePayload from a message
// reader positioned at the field value. Returns nil for an empty message.
func DecodePayload(r *Reader) (*mop.StatePayload, error) {
	sub, err := r.Msg()
	if err != nil {
		return nil, err
	}
	return decodePayloadMsg(sub)
}

// DecodePayloadBytes decodes a standalone payload message (fuzz entry
// point).
func DecodePayloadBytes(p []byte) (*mop.StatePayload, error) {
	return decodePayloadMsg(NewReader(p))
}

// EncodePayloadBytes encodes a standalone payload message.
func EncodePayloadBytes(p *mop.StatePayload) []byte {
	var b Buffer
	encodePayloadInto(&b, p)
	return b.Bytes()
}

func decodePayloadMsg(sub *Reader) (*mop.StatePayload, error) {
	if sub.Done() {
		return nil, nil
	}
	var kind, side int64
	var items []mop.StateItem
	err := sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			kind, err = sub.Varint()
		case 2:
			side, err = sub.Varint()
		case 3:
			var it mop.StateItem
			it, err = decodeItem(sub)
			items = append(items, it)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if kind < 0 || kind > 255 || side < 0 || side > 1 {
		return nil, corrupt("payload kind %d / side %d out of range", kind, side)
	}
	pl, err := mop.NewStatePayload(uint8(kind), int(side), items)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return pl, nil
}

func decodeItem(r *Reader) (mop.StateItem, error) {
	var it mop.StateItem
	sub, err := r.Msg()
	if err != nil {
		return it, err
	}
	err = sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			it.Key, err = sub.Varint()
		case 2:
			it.TS, err = sub.Varint()
		case 3:
			it.Group, err = sub.String()
		case 4:
			it.Val, err = sub.Varint()
		case 5:
			it.Member, err = readMember(sub)
		case 6:
			it.Tuple, err = readTuple(sub)
		case 7:
			it.Start, err = readTuple(sub)
		case 8:
			it.State, err = readTuple(sub)
		}
		return err
	})
	return it, err
}
