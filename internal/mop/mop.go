// Package mop implements executable physical multi-operators (m-ops,
// §2.2): the scheduling and execution units of the RUMOR engine. Each m-op
// implements a set of operators of one kind; its observable input/output
// behaviour equals the one-by-one execution of the implemented operators,
// but the implementation shares state and computation using the MQO
// techniques of the paper's Table 1:
//
//   - SelectMOp: predicate indexing [10,16] over equality predicates, plus
//     sequential evaluation of non-indexable predicates; doubles as the FR
//     index (§4.3) and as the channel select cσ.
//   - ProjectMOp: shared projection over channels (§3.1's π example).
//   - AggMOp: shared sliding-window aggregation [22] across group-by lists
//     and window lengths (one entry log per family of aggregates equal up
//     to their window, bounded by the largest window, as s⨝) and, in
//     channel mode, shared fragment aggregation [15] (cα).
//   - JoinMOp: shared window join [12] (s⨝) and precision sharing join
//     [14] (c⨝).
//   - SeqMOp / MuMOp: the Cayuga ; and µ operators (§4.2) with the AI
//     (active instance) index, an AN-style (active node) index over
//     right-side constants, per-op duration windows, CSE fan-out, and the
//     channel modes c;/cµ (§4.4).
//
// Lower turns a plan node (core.Node) into an executable m-op wired to the
// node's input and output channel edges.
package mop

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// Emit delivers an output tuple on the m-op's output port (an index into
// the node's output edges).
type Emit func(outPort int, t *stream.Tuple)

// MOp is an executable physical multi-operator. Process consumes one tuple
// arriving on the given input port and emits any outputs. Implementations
// are single-threaded: the engine serializes calls.
type MOp interface {
	Process(port int, t *stream.Tuple, emit Emit)
}

// EmitBlock delivers an output block on the m-op's output port. The block
// is transient: the engine recycles it (and its input) when the current
// drain reaches quiescence, so m-ops must never retain block references.
type EmitBlock func(outPort int, b *stream.Block)

// BatchMOp is implemented by m-ops that can additionally consume columnar
// blocks (the vectorized execution path). ProcessBlock consumes the live
// rows of one block arriving on the given input port. An m-op whose outputs
// stay columnar (selection) emits blocks through emitB, allocating block
// capacity only from bp; one whose outputs are freshly built tuples (;/µ)
// emits them through emit, the same row closure Process is handed. The
// observable behaviour must equal calling Process once per live row in row
// order.
//
// A stateful implementation forks dispatch only: it decides per row, from
// the columns, whether Process would have touched any operator state, and
// for the rows that would it runs the very same state transitions in the
// very same order (for SeqMOp: the same sequence of insert and matchGroup
// calls). There is no second matching implementation, so operator state,
// expiry and exported payloads after a block equal those after the rows.
//
// BlockReady reports whether this lowered instance can actually take the
// block path: implementations answer false when some operator needs the
// scalar representation (non-kernelizable predicate, membership position
// beyond the inline word, ...). The engine asks once at route-build time;
// a false answer keeps every edge into this m-op on the scalar path.
type BatchMOp interface {
	MOp
	BlockReady() bool
	ProcessBlock(port int, b *stream.Block, bp *stream.BlockPool, emit Emit, emitB EmitBlock)
}

// PortUse classifies what an m-op does with tuples delivered on one input
// port; the engine's release analysis uses it to decide where an Owned
// tuple's life ends.
type PortUse uint8

const (
	// PortReads: the tuple is inspected and dropped (outputs are fresh).
	PortReads PortUse = iota
	// PortForwards: the tuple itself may be re-emitted on an output port
	// (selection pass-through); ownership can travel with it.
	PortForwards
	// PortStores: the tuple may be kept in operator state past the call.
	PortStores
)

// Lowered pairs an executable m-op with its port wiring.
type Lowered struct {
	MOp      MOp
	InEdges  []*core.Edge // input port i reads InEdges[i]
	OutEdges []*core.Edge // output port j writes OutEdges[j]
	// PortUses[i] classifies the m-op's use of tuples arriving on input
	// port i (see PortUse). The engine releases Owned tuples back to the
	// tuple pool after delivery to edges whose consumers only read.
	PortUses []PortUse
}

// target identifies where an operator's output goes: the m-op output port
// and, when the edge is a channel, the membership position (else -1).
type target struct {
	port int
	pos  int
}

// ports assigns input and output ports for a node. Binary kinds place all
// left edges first and the single right edge last.
type portMap struct {
	inEdges   []*core.Edge
	outEdges  []*core.Edge
	inPortOf  map[int]int // edge ID → input port
	outPortOf map[int]int // edge ID → output port
}

func buildPorts(p *core.Physical, n *core.Node) (*portMap, error) {
	pm := &portMap{inPortOf: make(map[int]int), outPortOf: make(map[int]int)}
	addIn := func(e *core.Edge) {
		if _, ok := pm.inPortOf[e.ID]; !ok {
			pm.inPortOf[e.ID] = len(pm.inEdges)
			pm.inEdges = append(pm.inEdges, e)
		}
	}
	binary := n.Kind == core.KindJoin || n.Kind == core.KindSeq || n.Kind == core.KindMu
	for _, o := range n.Ops {
		for i, in := range o.In {
			if binary && i == 1 {
				continue // right edges added after all left edges
			}
			e, _ := p.EdgeOf(in)
			if e == nil {
				return nil, fmt.Errorf("op %d input stream %d has no edge", o.ID, in.ID)
			}
			addIn(e)
		}
	}
	if binary {
		for _, o := range n.Ops {
			e, _ := p.EdgeOf(o.In[1])
			if e == nil {
				return nil, fmt.Errorf("op %d right input has no edge", o.ID)
			}
			addIn(e)
		}
	}
	for _, o := range n.Ops {
		if o.Out == nil {
			continue
		}
		e, _ := p.EdgeOf(o.Out)
		if e == nil {
			return nil, fmt.Errorf("op %d output stream %d has no edge", o.ID, o.Out.ID)
		}
		if _, ok := pm.outPortOf[e.ID]; !ok {
			pm.outPortOf[e.ID] = len(pm.outEdges)
			pm.outEdges = append(pm.outEdges, e)
		}
	}
	return pm, nil
}

// inLoc returns the port and membership position of an op input stream.
func (pm *portMap) inLoc(p *core.Physical, s *core.StreamRef) (port, pos int) {
	e, i := p.EdgeOf(s)
	if !e.IsChannel() {
		i = -1
	}
	return pm.inPortOf[e.ID], i
}

// outLoc returns the target of an op output stream.
func (pm *portMap) outLoc(p *core.Physical, s *core.StreamRef) target {
	e, i := p.EdgeOf(s)
	if !e.IsChannel() {
		i = -1
	}
	return target{port: pm.outPortOf[e.ID], pos: i}
}

// Lower compiles a plan node into an executable m-op. tp is the engine's
// tuple pool: every tuple the m-op builds or recycles goes through it, so
// the engine's single-threaded execution domain never touches a shared
// pool (tp may be nil; the m-op then falls back to the global pool). A
// source node has no m-op: the engine hands pushed tuples to its
// consumers directly.
func Lower(p *core.Physical, n *core.Node, tp *stream.Pool) (*Lowered, error) {
	if len(n.Ops) == 0 {
		return nil, fmt.Errorf("node %d has no operators", n.ID)
	}
	pm, err := buildPorts(p, n)
	if err != nil {
		return nil, err
	}
	var m MOp
	switch n.Kind {
	case core.KindSelect:
		m, err = newSelectMOp(p, n, pm, tp)
	case core.KindProject:
		m, err = newProjectMOp(p, n, pm, tp)
	case core.KindAgg:
		m, err = newAggMOp(p, n, pm, tp)
	case core.KindJoin:
		m, err = newJoinMOp(p, n, pm, tp)
	case core.KindSeq:
		m, err = newSeqMOp(p, n, pm, tp, false)
	case core.KindMu:
		m, err = newSeqMOp(p, n, pm, tp, true)
	default:
		err = fmt.Errorf("cannot lower node kind %s", n.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("node %d (%s): %w", n.ID, n.Kind, err)
	}
	uses := make([]PortUse, len(pm.inEdges))
	for port := range uses {
		switch n.Kind {
		case core.KindProject, core.KindAgg:
			// Outputs are freshly built; inputs are read and dropped.
			uses[port] = PortReads
		case core.KindSelect:
			// The input tuple itself may be re-emitted downstream.
			uses[port] = PortForwards
		case core.KindSeq, core.KindMu:
			// Left tuples are stored as instances; right tuples only feed
			// freshly built concatenations.
			if m.(*SeqMOp).retainsPort(port) {
				uses[port] = PortStores
			} else {
				uses[port] = PortReads
			}
		default:
			// Joins buffer both sides; unknown kinds stay conservative.
			uses[port] = PortStores
		}
	}
	return &Lowered{MOp: m, InEdges: pm.inEdges, OutEdges: pm.outEdges, PortUses: uses}, nil
}

// chanEmitter accumulates, for channel output ports, the membership of one
// logical output tuple per port per Process call, so that an m-op writes a
// single channel tuple regardless of how many of its operators produced
// the (identical-content) output — the space sharing of §3.1. Only touched
// ports are visited on flush, keeping per-tuple cost independent of the
// m-op's total output-port count.
type chanEmitter struct {
	member  []memberAcc
	touched []int
	pool    *stream.Pool
}

type memberAcc struct {
	bits  []int
	inUse bool
}

func newChanEmitter(nPorts int, tp *stream.Pool) *chanEmitter {
	return &chanEmitter{member: make([]memberAcc, nPorts), pool: tp}
}

// add records that the operator with the given target produced the shared
// output tuple. Non-channel targets are emitted immediately by the caller.
func (c *chanEmitter) add(tg target) {
	acc := &c.member[tg.port]
	if !acc.inUse {
		acc.inUse = true
		c.touched = append(c.touched, tg.port)
	}
	acc.bits = append(acc.bits, tg.pos)
}

// flush emits one channel tuple per accumulated port, with content base,
// then resets. baseExclusive asserts that base is a pooled tuple the
// caller built for this flush and emitted nowhere else; with a single
// accumulated port the membership is then attached to base directly and
// the emission is releasable by the engine.
//
//rumor:owner
func (c *chanEmitter) flush(base *stream.Tuple, emit Emit, baseExclusive bool) {
	if len(c.touched) == 0 {
		return
	}
	if baseExclusive && len(c.touched) == 1 {
		port := c.touched[0]
		acc := &c.member[port]
		base.Member = newMember(acc.bits)
		base.Owned = true
		emit(port, base)
		acc.bits = acc.bits[:0]
		acc.inUse = false
		c.touched = c.touched[:0]
		return
	}
	for _, port := range c.touched {
		acc := &c.member[port]
		m := newMember(acc.bits)
		emit(port, c.pool.WithMember(base, m))
		acc.bits = acc.bits[:0]
		acc.inUse = false
	}
	c.touched = c.touched[:0]
}
