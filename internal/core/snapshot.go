package core

import (
	"fmt"
	"sort"

	"repro/internal/stream"
)

// This file implements plan snapshots: a self-contained DTO capturing a
// Physical plan's exact shape — including IDs, tombstoned channel slots,
// and the allocation counters — so a checkpoint can rebuild the identical
// plan in a fresh process. Planning is deterministic (plans.sha256 pins
// batch Optimize's IDs; cluster workers replay live churn and check the
// Fingerprint), but a plan's shape is its history: the set-up Optimize,
// then each live add and remove, whose tombstones and counters no batch
// Optimize of the surviving queries reproduces. The handshake and the
// checkpoint carry no such history, so they ship the structure; shipping
// the declarations and the churn log to replay is ROADMAP item 34(b).

// SchemaSnap captures a stream schema by value.
type SchemaSnap struct {
	Name  string
	Attrs []string
}

// StreamSnap captures one StreamRef. Producer is the producing operator's
// ID, or -1 for none (never the case in a valid plan, but kept defensive).
type StreamSnap struct {
	ID         int
	Schema     SchemaSnap
	Producer   int
	Source     string
	ShareClass string
	Dead       bool
}

// OpSnap captures one operator: its definition plus stream wiring by ID.
type OpSnap struct {
	ID      int
	QueryID int
	Def     *Def
	In      []int // input stream IDs, in side order
	Out     int   // output stream ID
	Node    int   // owning node ID
}

// NodeSnap captures one m-op node; Ops lists operator IDs in node order.
type NodeSnap struct {
	ID   int
	Kind OpKind
	Ops  []int
}

// EdgeSnap captures one edge; Streams lists stream IDs in slot order
// (membership positions).
type EdgeSnap struct {
	ID      int
	Streams []int
}

// QuerySnap captures one registered query, including its logical tree so a
// restored system can keep serving live churn.
type QuerySnap struct {
	ID   int
	Name string
	Root *Logical
}

// SourceSnap captures one catalog entry.
type SourceSnap struct {
	Name   string
	Label  string
	Schema SchemaSnap
}

// PlanSnapshot is the serializable image of a Physical plan.
type PlanSnapshot struct {
	Sources []SourceSnap
	Streams []StreamSnap
	Ops     []OpSnap
	Nodes   []NodeSnap
	Edges   []EdgeSnap
	Queries []QuerySnap
	// OutStream maps query ID → output stream ID.
	OutStream map[int]int
	// Allocation counters, so post-restore maintenance continues the
	// original ID sequences.
	NextStream, NextOp, NextNode, NextEdge, NextQuery int
}

func snapSchema(s *stream.Schema) SchemaSnap {
	return SchemaSnap{Name: s.Name, Attrs: append([]string(nil), s.Attrs...)}
}

// Snapshot captures the plan's current shape. The plan must not have an
// active delta recording (snapshots are taken at maintenance barriers).
func (p *Physical) Snapshot() *PlanSnapshot {
	snap := &PlanSnapshot{
		OutStream:  make(map[int]int, len(p.outStream)),
		NextStream: p.nextStream,
		NextOp:     p.nextOp,
		NextNode:   p.nextNode,
		NextEdge:   p.nextEdge,
		NextQuery:  p.nextQuery,
	}

	for _, name := range sortedKeys(p.Catalog) {
		decl := p.Catalog[name]
		snap.Sources = append(snap.Sources, SourceSnap{
			Name: name, Label: decl.Label, Schema: snapSchema(decl.Schema),
		})
	}

	// Every stream lives on exactly one edge (tombstones included), so the
	// edges enumerate the stream population.
	seen := make(map[int]bool)
	for _, id := range sortedKeys(p.Edges) {
		e := p.Edges[id]
		es := EdgeSnap{ID: e.ID, Streams: make([]int, len(e.Streams))}
		for i, s := range e.Streams {
			es.Streams[i] = s.ID
			if seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			ss := StreamSnap{
				ID:         s.ID,
				Schema:     snapSchema(s.Schema),
				Producer:   -1,
				Source:     s.Source,
				ShareClass: s.ShareClass,
				Dead:       s.Dead,
			}
			if s.Producer != nil {
				ss.Producer = s.Producer.ID
			}
			snap.Streams = append(snap.Streams, ss)
		}
		snap.Edges = append(snap.Edges, es)
	}
	sort.Slice(snap.Streams, func(i, j int) bool { return snap.Streams[i].ID < snap.Streams[j].ID })

	for _, id := range sortedKeys(p.Nodes) {
		n := p.Nodes[id]
		ns := NodeSnap{ID: n.ID, Kind: n.Kind, Ops: make([]int, len(n.Ops))}
		for i, o := range n.Ops {
			ns.Ops[i] = o.ID
			os := OpSnap{ID: o.ID, QueryID: o.QueryID, Def: o.Def, In: make([]int, len(o.In)), Out: -1, Node: n.ID}
			for j, in := range o.In {
				os.In[j] = in.ID
			}
			if o.Out != nil {
				os.Out = o.Out.ID
			}
			snap.Ops = append(snap.Ops, os)
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	sort.Slice(snap.Ops, func(i, j int) bool { return snap.Ops[i].ID < snap.Ops[j].ID })

	for _, q := range p.Queries {
		snap.Queries = append(snap.Queries, QuerySnap{ID: q.ID, Name: q.Name, Root: q.Root})
	}
	for qid, s := range p.outStream {
		snap.OutStream[qid] = s.ID
	}
	return snap
}

// CatalogDecls rebuilds the source catalog of a source table.
func CatalogDecls(srcs []SourceSnap) (map[string]SourceDecl, error) {
	out := make(map[string]SourceDecl, len(srcs))
	for _, src := range srcs {
		sch, err := stream.NewSchema(src.Schema.Name, src.Schema.Attrs...)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot source %q: %w", src.Name, err)
		}
		out[src.Name] = SourceDecl{Schema: sch, Label: src.Label}
	}
	return out, nil
}

// RebuildPhysical reconstructs a Physical plan from a snapshot over the
// catalog of its source table. The rebuilt plan has the exact
// node/op/stream/edge IDs and channel slot layout of the original, so
// serialized operator state binds to the same groups.
func RebuildPhysical(s *PlanSnapshot) (*Physical, error) {
	catalog, err := CatalogDecls(s.Sources)
	if err != nil {
		return nil, err
	}
	p := NewPhysical(catalog)
	p.nextStream = s.NextStream
	p.nextOp = s.NextOp
	p.nextNode = s.NextNode
	p.nextEdge = s.NextEdge
	p.nextQuery = s.NextQuery

	// Schemas: deduplicate identical (name, attrs) so rebuilt streams share
	// instances the way freshly planned streams do.
	schemas := make(map[string]*stream.Schema)
	getSchema := func(sn SchemaSnap) (*stream.Schema, error) {
		key := sn.Name
		for _, a := range sn.Attrs {
			key += "\x00" + a
		}
		if sch, ok := schemas[key]; ok {
			return sch, nil
		}
		sch, err := stream.NewSchema(sn.Name, sn.Attrs...)
		if err != nil {
			return nil, err
		}
		schemas[key] = sch
		return sch, nil
	}

	streams := make(map[int]*StreamRef, len(s.Streams))
	for _, ss := range s.Streams {
		sch, err := getSchema(ss.Schema)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot stream %d: %w", ss.ID, err)
		}
		streams[ss.ID] = &StreamRef{
			ID: ss.ID, Schema: sch, Source: ss.Source,
			ShareClass: ss.ShareClass, Dead: ss.Dead,
		}
	}

	ops := make(map[int]*Op, len(s.Ops))
	for i := range s.Ops {
		os := &s.Ops[i]
		if os.Def == nil {
			return nil, fmt.Errorf("core: snapshot op %d has no definition", os.ID)
		}
		o := &Op{ID: os.ID, QueryID: os.QueryID, Def: os.Def}
		for _, sid := range os.In {
			in, ok := streams[sid]
			if !ok {
				return nil, fmt.Errorf("core: snapshot op %d reads unknown stream %d", os.ID, sid)
			}
			o.In = append(o.In, in)
		}
		if os.Out >= 0 {
			out, ok := streams[os.Out]
			if !ok {
				return nil, fmt.Errorf("core: snapshot op %d writes unknown stream %d", os.ID, os.Out)
			}
			o.Out = out
			out.Producer = o
		}
		ops[o.ID] = o
	}

	for _, ns := range s.Nodes {
		n := &Node{ID: ns.ID, Kind: ns.Kind}
		for _, oid := range ns.Ops {
			o, ok := ops[oid]
			if !ok {
				return nil, fmt.Errorf("core: snapshot node %d lists unknown op %d", ns.ID, oid)
			}
			o.Node = n
			n.Ops = append(n.Ops, o)
		}
		p.Nodes[n.ID] = n
	}

	for _, es := range s.Edges {
		e := &Edge{ID: es.ID}
		for _, sid := range es.Streams {
			st, ok := streams[sid]
			if !ok {
				return nil, fmt.Errorf("core: snapshot edge %d carries unknown stream %d", es.ID, sid)
			}
			e.Streams = append(e.Streams, st)
		}
		p.seat(e)
		p.Edges[e.ID] = e
	}

	// Secondary indexes, in deterministic (ID-sorted) order.
	for _, id := range sortedKeys(ops) {
		o := ops[id]
		for _, in := range o.In {
			p.consumersOf[in.ID] = append(p.consumersOf[in.ID], o)
		}
	}
	for _, ss := range s.Streams {
		st := streams[ss.ID]
		if st.Dead {
			continue
		}
		p.addClassStream(st)
	}
	for _, n := range p.Nodes {
		if n.Kind != KindSource {
			continue
		}
		for _, o := range n.Ops {
			if o.Out == nil || o.Out.Source == "" {
				continue
			}
			p.sourceRef[o.Out.Source] = o.Out
		}
	}

	for _, qs := range s.Queries {
		if qs.Root == nil {
			return nil, fmt.Errorf("core: snapshot query %d (%s) has no logical tree", qs.ID, qs.Name)
		}
		p.Queries = append(p.Queries, &Query{ID: qs.ID, Name: qs.Name, Root: qs.Root})
	}
	for qid, sid := range s.OutStream {
		st, ok := streams[sid]
		if !ok {
			return nil, fmt.Errorf("core: snapshot query %d outputs unknown stream %d", qid, sid)
		}
		p.setOutput(qid, st)
	}

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: rebuilt plan invalid: %w", err)
	}
	return p, nil
}
