package wire

import (
	"repro/internal/bitset"
	"repro/internal/mop"
	"repro/internal/stream"
)

// State payload codec: the serialized form of one (state group, side)
// export — the unit of state transport between shards and the bulk of a
// checkpoint. Kind codes are mop's wire-stable constants.

// payloadForm is the wire form of a state payload.
type payloadForm struct {
	kind, side int64
	items      []mop.StateItem
}

func payloadFields(c *Codec, m *payloadForm) {
	Varint(c, 1, &m.kind)
	Varint(c, 2, &m.side)
	Msgs(c, 3, &m.items, itemFields)
}

func itemFields(c *Codec, it *mop.StateItem) {
	Varint(c, 1, &it.Key)
	Varint(c, 2, &it.TS)
	c.String(3|OmitEmpty, &it.Group)
	Varint(c, 4|OmitEmpty, &it.Val)
	member(c, 5, &it.Member)
	Ptr(c, 6, &it.Tuple, tupleFields)
	Ptr(c, 7, &it.Start, tupleFields)
	// State aliases Start for seq instances; only µ instances carry
	// distinct accumulated state.
	if c.dec || it.State != it.Start {
		Ptr(c, 8, &it.State, tupleFields)
	}
}

func tupleFields(c *Codec, t *stream.Tuple) {
	Varint(c, 1, &t.TS)
	c.Int64s(2, &t.Vals)
	member(c, 3, &t.Member)
}

// member declares a membership set as the packed list of its bit
// indices, absent when the set is nil. A decoded index above 2^20 is
// corrupt.
func member(c *Codec, field int, p **bitset.Set) {
	if !c.at(field) {
		return
	}
	if !c.dec {
		if *p != nil {
			c.PutIntsField(field, (*p).Indices())
		}
		return
	}
	idx, err := c.r.Ints()
	if err != nil {
		c.err = err
		return
	}
	for _, i := range idx {
		if i < 0 || i > 1<<20 {
			c.err = corrupt("bit index %d out of range", i)
			return
		}
	}
	*p = bitset.FromIndices(idx...)
}

// EncodePayloadBytes encodes a standalone payload message. A nil payload
// encodes as an empty message.
func EncodePayloadBytes(p *mop.StatePayload) []byte {
	if p == nil {
		return []byte{}
	}
	b, _ := Marshal(&payloadForm{int64(p.Kind()), int64(p.Side()), p.Items()}, payloadFields)
	return b
}

// DecodePayloadBytes decodes a standalone payload message. Returns nil for
// an empty message.
func DecodePayloadBytes(p []byte) (*mop.StatePayload, error) {
	if len(p) == 0 {
		return nil, nil
	}
	var m payloadForm
	if err := Unmarshal(p, &m, payloadFields); err != nil {
		return nil, err
	}
	if m.kind < 0 || m.kind > 255 || m.side < 0 || m.side > 1 {
		return nil, corrupt("payload kind %d / side %d out of range", m.kind, m.side)
	}
	pl, err := mop.NewStatePayload(uint8(m.kind), int(m.side), m.items)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return pl, nil
}
