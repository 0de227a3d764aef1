package mop

import "fmt"

// This file exposes the minimal read/build surface the wire codec (package
// wire) needs to serialize StatePayloads without reaching into package
// internals. The payload kind codes below are part of the on-disk format
// and must never be renumbered.

// Wire-stable payload kind codes (equal to the internal groupKind values).
//
//rumor:allow deadexport the on-disk kind codes, which the wire tests build payloads of
const (
	WireKindAgg  uint8 = uint8(kindAggState)
	WireKindJoin uint8 = uint8(kindJoinState)
	WireKindSeq  uint8 = uint8(kindSeqState)
	WireKindMu   uint8 = uint8(kindMuState)
)

// Kind returns the payload's wire kind code.
func (p *StatePayload) Kind() uint8 { return uint8(p.kind) }

// Items returns the payload's items, in stored (timestamp) order. The
// slice, tuples and bitsets are the payload's own; callers must treat
// them as read-only.
func (p *StatePayload) Items() []StateItem {
	if p == nil {
		return nil
	}
	return p.items
}

// NewStatePayload builds a payload over decoded items, taking ownership of
// the slice. For seq payloads the State field is ignored and re-aliased to
// Start (the in-memory invariant for `;` instances); for every other kind
// the fields are taken as given. Items must already be in timestamp order.
func NewStatePayload(kind uint8, side int, items []StateItem) (*StatePayload, error) {
	k := groupKind(kind)
	switch k {
	case kindAggState, kindJoinState, kindSeqState, kindMuState:
	default:
		return nil, fmt.Errorf("mop: unknown payload kind %d", kind)
	}
	if k == kindSeqState {
		for i := range items {
			items[i].State = items[i].Start
		}
	}
	return &StatePayload{kind: k, side: side, items: items}, nil
}
