package wire

import (
	"sort"

	"repro/internal/core"
)

// Plan-delta codec: the incremental checkpoint log embeds the core.Delta
// each live maintenance operation applied, so a restorer can verify the
// replayed churn reproduces the recorded plan shape.
//
// delta:  1=dirty 2=removed 3=removedEdges 4=newEdges 5=newStreams
//         6=remap (repeated) 7=newQueries 8=removedQueries
// remap:  1=edgeID 2=table(packed) 3=op (repeated {1=opID 2=side})

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// EncodeDeltaBytes encodes a standalone delta message (nil-safe).
func EncodeDeltaBytes(d *core.Delta) []byte {
	var b Buffer
	if d == nil {
		return b.Bytes()
	}
	if len(d.Dirty) > 0 {
		b.PutIntsField(1, sortedKeys(d.Dirty))
	}
	if len(d.Removed) > 0 {
		b.PutIntsField(2, sortedKeys(d.Removed))
	}
	if len(d.RemovedEdges) > 0 {
		b.PutIntsField(3, sortedKeys(d.RemovedEdges))
	}
	if len(d.NewEdges) > 0 {
		b.PutIntsField(4, sortedKeys(d.NewEdges))
	}
	if len(d.NewStreams) > 0 {
		b.PutIntsField(5, sortedKeys(d.NewStreams))
	}
	for _, rm := range d.Remaps {
		remap := rm
		b.PutMsgField(6, func(sub *Buffer) {
			sub.PutVarintField(1, int64(remap.EdgeID))
			sub.PutIntsField(2, remap.Table)
			for _, op := range remap.Ops {
				o := op
				sub.PutMsgField(3, func(ob *Buffer) {
					ob.PutVarintField(1, int64(o.OpID))
					ob.PutVarintField(2, int64(o.Side))
				})
			}
		})
	}
	if len(d.NewQueries) > 0 {
		b.PutIntsField(7, d.NewQueries)
	}
	if len(d.RemovedQueries) > 0 {
		b.PutIntsField(8, d.RemovedQueries)
	}
	return b.Bytes()
}

// DecodeDeltaBytes decodes a standalone delta message. An empty input
// yields an empty (non-nil) delta.
func DecodeDeltaBytes(p []byte) (*core.Delta, error) {
	r := NewReader(p)
	d := &core.Delta{
		Dirty:        make(map[int]bool),
		Removed:      make(map[int]bool),
		RemovedEdges: make(map[int]bool),
		NewEdges:     make(map[int]bool),
		NewStreams:   make(map[int]bool),
	}
	setOf := func(dst map[int]bool) error {
		ids, err := r.Ints()
		if err != nil {
			return err
		}
		for _, id := range ids {
			dst[id] = true
		}
		return nil
	}
	err := r.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			err = setOf(d.Dirty)
		case 2:
			err = setOf(d.Removed)
		case 3:
			err = setOf(d.RemovedEdges)
		case 4:
			err = setOf(d.NewEdges)
		case 5:
			err = setOf(d.NewStreams)
		case 6:
			var rm core.ChannelRemap
			rm, err = decodeRemap(r)
			d.Remaps = append(d.Remaps, rm)
		case 7:
			d.NewQueries, err = r.Ints()
		case 8:
			d.RemovedQueries, err = r.Ints()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func decodeRemap(r *Reader) (core.ChannelRemap, error) {
	var rm core.ChannelRemap
	sub, err := r.Msg()
	if err != nil {
		return rm, err
	}
	err = sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			rm.EdgeID, err = sub.Int()
		case 2:
			rm.Table, err = sub.Ints()
		case 3:
			var op core.RemapOp
			op, err = decodeRemapOp(sub)
			rm.Ops = append(rm.Ops, op)
		}
		return err
	})
	return rm, err
}

func decodeRemapOp(r *Reader) (core.RemapOp, error) {
	var op core.RemapOp
	sub, err := r.Msg()
	if err != nil {
		return op, err
	}
	err = sub.Fields(func(f, _ int) (err error) {
		switch f {
		case 1:
			op.OpID, err = sub.Int()
		case 2:
			op.Side, err = sub.Int()
		}
		return err
	})
	return op, err
}
