package core

import (
	"fmt"
	"sort"
	"strings"
)

// Dot renders the physical plan in Graphviz dot format: one box per m-op
// node (labelled with its kind and operator count), one edge per
// stream-level connection, with channel edges drawn dashed and labelled
// with their capacity — mirroring the paper's figures, where dashed arrows
// represent channels.
func (p *Physical) Dot() string {
	var b strings.Builder
	b.WriteString("digraph rumor {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n")
	// Plan-level channel width: live membership slots over total slots
	// (tombstones included) — the quantity channel compaction bounds.
	if st := p.Stats(); st.TotalSlots > 0 {
		fmt.Fprintf(&b, "  label=\"channels %d, slots %d/%d live\";\n",
			st.Channels, st.LiveSlots, st.TotalSlots)
	}

	refs := p.OpRefcounts()
	nodeIDs := sortedKeys(p.Nodes)
	for _, id := range nodeIDs {
		n := p.Nodes[id]
		// refs: live query references across the node's operators — the
		// refcounts live removal decrements before garbage-collecting.
		nodeRefs := 0
		for _, o := range n.Ops {
			nodeRefs += refs[o.ID]
		}
		label := fmt.Sprintf("%s m-op #%d\\n%d ops, refs=%d", n.Kind, n.ID, len(n.Ops), nodeRefs)
		if n.Kind == KindSource {
			names := map[string]bool{}
			for _, o := range n.Ops {
				if o.Out != nil && o.Out.Source != "" {
					names[o.Out.Source] = true
				}
			}
			label = fmt.Sprintf("source %s", strings.Join(sortedKeys(names), ","))
			fmt.Fprintf(&b, "  n%d [label=\"%s\", shape=ellipse];\n", n.ID, label)
			continue
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", n.ID, label)
	}

	// One dot edge per (producer node, consumer node, plan edge) triple.
	type link struct{ from, to, edge int }
	seen := map[link]bool{}
	var links []link
	for _, id := range nodeIDs {
		n := p.Nodes[id]
		for _, o := range n.Ops {
			for _, in := range o.In {
				if in.Producer == nil {
					continue
				}
				e, _ := p.EdgeOf(in)
				l := link{from: in.Producer.Node.ID, to: n.ID, edge: e.ID}
				if !seen[l] {
					seen[l] = true
					links = append(links, l)
				}
			}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].from != links[j].from {
			return links[i].from < links[j].from
		}
		if links[i].to != links[j].to {
			return links[i].to < links[j].to
		}
		return links[i].edge < links[j].edge
	})
	for _, l := range links {
		e := p.Edges[l.edge]
		if e != nil && e.IsChannel() {
			// Membership width: live streams over total slots (tombstoned
			// positions from removed queries keep their slot).
			live, total := e.LiveStreams(), len(e.Streams)
			width := fmt.Sprintf("%d", live)
			if live != total {
				width = fmt.Sprintf("%d/%d", live, total)
			}
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, label=\"channel ×%s\"];\n",
				l.from, l.to, width)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", l.from, l.to)
		}
	}

	// Query sinks.
	qids := make([]int, 0, len(p.Queries))
	for _, q := range p.Queries {
		qids = append(qids, q.ID)
	}
	sort.Ints(qids)
	for _, qid := range qids {
		out := p.outStream[qid]
		if out == nil || out.Producer == nil {
			continue
		}
		fmt.Fprintf(&b, "  q%d [label=\"Q%d\", shape=plaintext];\n", qid, qid)
		fmt.Fprintf(&b, "  n%d -> q%d [arrowhead=vee];\n", out.Producer.Node.ID, qid)
	}
	b.WriteString("}\n")
	return b.String()
}
