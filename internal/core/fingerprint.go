package core

import "repro/internal/stream"

// Fingerprint returns the plan's identity: the 64-bit FNV-1a hash of one
// ordered walk over what a snapshot holds but query trees and producers.
// The walk takes the source table in name order; the nodes in ID order,
// each with its ops in node order (ID, query, definition key, input and
// output streams); the edges in ID order, each with its streams in slot
// order (ID, schema, source, share class, tombstone); the live queries
// with their output streams; and the ID counters. A live stream's producer
// is the op that outputs it; a tombstone's is the removed op, which a plan
// rebuilt from a snapshot does not keep.
func (p *Physical) Fingerprint() uint64 {
	h := fnv64(14695981039346656037) // the FNV-1a 64 offset basis
	names := sortedKeys(p.Catalog)
	h = h.int(len(names))
	for _, name := range names {
		decl := p.Catalog[name]
		h = h.string(name).string(decl.Label).schema(decl.Schema)
	}
	ids := sortedKeys(p.Nodes)
	h = h.int(len(ids))
	for _, id := range ids {
		n := p.Nodes[id]
		h = h.int(n.ID).int(int(n.Kind)).int(len(n.Ops))
		for _, o := range n.Ops {
			h = h.int(o.ID).int(o.QueryID).string(o.Def.Key()).int(len(o.In))
			for _, in := range o.In {
				h = h.int(in.ID)
			}
			h = h.int(o.Out.ID)
		}
	}
	ids = sortedKeys(p.Edges)
	h = h.int(len(ids))
	for _, id := range ids {
		e := p.Edges[id]
		h = h.int(e.ID).int(len(e.Streams))
		for _, s := range e.Streams {
			h = h.int(s.ID).schema(s.Schema).string(s.Source).string(s.ShareClass).bool(s.Dead)
		}
	}
	h = h.int(len(p.Queries))
	for _, q := range p.Queries {
		h = h.int(q.ID).string(q.Name).int(p.outStream[q.ID].ID)
	}
	return uint64(h.int(p.nextStream).int(p.nextOp).int(p.nextNode).int(p.nextEdge).int(p.nextQuery))
}

// fnv64 is an FNV-1a 64 hash that a walk writes to; each method returns
// the hash with its value written. Every value is self-delimiting: an
// integer is a zigzag varint, and a string or a list follows its length.
type fnv64 uint64

func (h fnv64) byte(b byte) fnv64 { return (h ^ fnv64(b)) * 1099511628211 } // the FNV 64 prime

func (h fnv64) int(v int) fnv64 {
	u := uint64(int64(v)<<1) ^ uint64(int64(v)>>63)
	for ; u >= 0x80; u >>= 7 {
		h = h.byte(byte(u) | 0x80)
	}
	return h.byte(byte(u))
}

func (h fnv64) bool(b bool) fnv64 {
	if b {
		return h.byte(1)
	}
	return h.byte(0)
}

func (h fnv64) string(s string) fnv64 {
	h = h.int(len(s))
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h
}

func (h fnv64) schema(s *stream.Schema) fnv64 {
	h = h.string(s.Name).int(len(s.Attrs))
	for _, a := range s.Attrs {
		h = h.string(a)
	}
	return h
}
