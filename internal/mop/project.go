package mop

import (
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
)

// projGroup is a set of projection operators with the same schema map
// reading the same input port: the map is applied once per tuple (§3.1's
// π example — one evaluation and one output channel tuple for n operators).
type projGroup struct {
	m   *expr.SchemaMap
	ops []selOp
}

// ProjectMOp is the projection m-op.
type ProjectMOp struct {
	ports [][]*projGroup
	ce    *chanEmitter
	pool  *stream.Pool
	// tgScratch collects plain emission targets per group (reused).
	tgScratch []target
}

func newProjectMOp(p *core.Physical, n *core.Node, pm *portMap, tp *stream.Pool) (*ProjectMOp, error) {
	m := &ProjectMOp{
		ports: make([][]*projGroup, len(pm.inEdges)),
		ce:    newChanEmitter(len(pm.outEdges), tp),
		pool:  tp,
	}
	type gkey struct {
		port int
		def  string
	}
	groups := make(map[gkey]*projGroup)
	for _, o := range n.Ops {
		port, pos := pm.inLoc(p, o.In[0])
		k := gkey{port: port, def: o.Def.Key()}
		g, ok := groups[k]
		if !ok {
			g = &projGroup{m: o.Def.Map}
			groups[k] = g
			m.ports[port] = append(m.ports[port], g)
		}
		g.ops = append(g.ops, selOp{inPos: pos, tg: pm.outLoc(p, o.Out)})
	}
	return m, nil
}

// Process implements MOp.
//
//rumor:owner — builds pooled output tuples and marks them engine-releasable.
func (m *ProjectMOp) Process(port int, t *stream.Tuple, emit Emit) {
	for _, g := range m.ports[port] {
		// Targets first: the output is singly referenced only with one
		// plain target and no channel one, and it is marked before
		// emission, as the engine may count it there.
		tgs := m.tgScratch[:0]
		chanAdds := 0
		for _, o := range g.ops {
			if o.inPos >= 0 && !t.Member.Test(o.inPos) {
				continue
			}
			if o.tg.pos < 0 {
				tgs = append(tgs, o.tg)
			} else {
				m.ce.add(o.tg)
				chanAdds++
			}
		}
		m.tgScratch = tgs[:0]
		if len(tgs) == 0 && chanAdds == 0 {
			continue
		}
		out := m.pool.Get(t.TS, len(g.m.Cols))
		for i, e := range g.m.Cols {
			out.Vals[i] = e.Eval(t)
		}
		out.Owned = len(tgs) == 1 && chanAdds == 0
		for _, tg := range tgs {
			emit(tg.port, out)
		}
		m.ce.flush(out, emit, len(tgs) == 0)
	}
}
