package liveness

import (
	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
)

// graph is the materialized reachable state graph of one bounded model
// instance. The safety checker never stores edges — it only needs the
// BFS frontier — but cycle detection needs the whole graph at once, so
// the builder keeps a compressed-sparse-row edge list alongside the
// per-node metadata the fairness check and lasso reconstruction need.
// States themselves are discarded after expansion; a node is its 64-bit
// fingerprint hash plus its (parent, event-index) recipe, exactly the
// representation the safety checker replays traces from.
type graph struct {
	m    *gcmodel.Model
	ents entities

	// Per-node arrays, indexed by node id. Ids are assigned in BFS
	// discovery order, which is also expansion order.
	hash   []uint64 // fingerprint hash
	bad    []uint32 // property bitmask: bit i ⇔ props[i].Bad holds here
	en     []uint64 // fairness entities enabled here (∪ of taken masks over the FULL enumeration, including cap-dropped edges)
	parent []int32  // BFS parent id (-1 at the root)
	peidx  []int32  // event index that produced this node from parent
	depth  []int32

	// CSR out-edges: node u's edges occupy indices estart[u] ..
	// estart[u+1]-1. A MaxStates cap drops edges whose target is over
	// the cap but keeps their bits in en, so dropped edges only remove
	// cycles and taken-coverage — they can never excuse an entity.
	// Nodes the search never expanded (at MaxDepth, or past a MaxStates
	// or interruption cut) keep en = 0 and no out-edges, so no cycle
	// passes through them. Either way capped runs under-approximate:
	// they never fabricate violations.
	estart []int32
	eto    []int32  // target node id
	etaken []uint64 // fairness entities this edge serves
	eeidx  []int32  // event index in the source's successor enumeration
}

// bytes is the payload memory retained by the graph arrays.
func (g *graph) bytes() int64 {
	nodes := int64(len(g.hash)) * (8 + 4 + 8 + 4 + 4 + 4)
	edges := int64(len(g.eto))*(4+8+4) + int64(len(g.estart))*4
	return nodes + edges
}

// outEdges returns the CSR index range of node u's out-edges.
func (g *graph) outEdges(u int32) (int32, int32) {
	return g.estart[u], g.estart[u+1]
}

// buildGraph explores m over the full, unreduced transition relation
// with explore.Run — no checks, no reduction, no symmetry, no traces —
// and builds the graph from what the search reports. It returns the
// graph and the run's result, whose counts and stop reason describe it.
func buildGraph(m *gcmodel.Model, props []Property, ents entities, opt Options) (*graph, explore.Result) {
	b := &builder{
		g:         &graph{m: m, ents: ents},
		props:     props,
		maxStates: opt.MaxStates,
		ids:       make(map[uint64]int32, 1<<16),
		out:       make([][]edge, 1),
	}
	init := m.Initial()
	b.add(m.FingerprintHash(init), -1, -1, 0, badMask(m, props, init))
	res := explore.Run(m, nil, explore.Options{
		MaxStates:     opt.MaxStates,
		MaxDepth:      opt.MaxDepth,
		Progress:      opt.Progress,
		ProgressEvery: opt.ProgressEvery,
		Workers:       opt.Workers,
		HashOnly:      true,
		Context:       opt.Context,
		Hook:          explore.Hook{Edge: b.edge, Layer: b.layer},
	})
	g := b.g
	for len(g.estart) <= len(g.hash) { // unexpanded nodes, then the sentinel
		g.estart = append(g.estart, int32(len(g.eto)))
	}
	return g, res
}

// builder turns the reports of one explore.Run into a graph. Workers
// report edges in whatever order they expand states, each source's
// edges from one goroutine in event-index order, into that source's
// own slot. At each layer barrier the builder walks the layer's edges
// in (source id, event index) order and gives each new target an id
// the first time it appears: the discovery order of a sequential BFS,
// so node ids, edge order, SCCs and lassos do not depend on the worker
// count.
type builder struct {
	g         *graph
	props     []Property
	maxStates int
	// ids maps fingerprint hash to node id. Only the layer barrier
	// writes it, so workers read it without a lock.
	ids map[uint64]int32
	lo  int32    // id of the first node of the layer being expanded
	out [][]edge // out[u-lo]: the edges of source u, written only by u's worker
}

// edge is one transition as reported mid-layer, before its target has
// a node id.
type edge struct {
	to    uint64
	taken uint64
	eidx  int32
	bad   uint32 // the target's property mask
}

func (b *builder) edge(from uint64, eidx int, to uint64, su, ns gcmodel.SysState, ev cimp.Event) error {
	// Enabledness must be computed from the FULL successor enumeration,
	// before any cap drops the edge: weak fairness excuses entities that
	// are disabled somewhere on a cycle, so an under-computed en mask
	// would excuse genuinely enabled entities and fabricate fair cycles
	// on capped runs.
	e := edge{to, b.g.takenMask(su, ev, ns), int32(eidx), badMask(b.g.m, b.props, ns)}
	i := b.ids[from] - b.lo
	b.out[i] = append(b.out[i], e)
	return nil
}

// layer numbers the targets first reached from the layer just expanded
// and appends the CSR edge ranges of its sources. A target over the
// MaxStates cap gets no id and its edge is dropped (the edge list only
// ever references real nodes), but its taken bits stay in en.
func (b *builder) layer() {
	g := b.g
	hi := int32(len(g.hash))
	for u := b.lo; u < hi; u++ {
		g.estart = append(g.estart, int32(len(g.eto)))
		for _, e := range b.out[u-b.lo] {
			g.en[u] |= e.taken
			v, ok := b.ids[e.to]
			if !ok {
				if b.maxStates > 0 && len(g.hash) >= b.maxStates {
					continue
				}
				v = b.add(e.to, u, e.eidx, g.depth[u]+1, e.bad)
			}
			g.eto = append(g.eto, v)
			g.etaken = append(g.etaken, e.taken)
			g.eeidx = append(g.eeidx, e.eidx)
		}
		b.out[u-b.lo] = b.out[u-b.lo][:0]
	}
	b.lo = hi
	if n := len(g.hash) - int(hi); n > len(b.out) {
		b.out = append(b.out, make([][]edge, n-len(b.out))...)
	}
}

func (b *builder) add(h uint64, parent, eidx, depth int32, bad uint32) int32 {
	g := b.g
	id := int32(len(g.hash))
	b.ids[h] = id
	g.hash = append(g.hash, h)
	g.bad = append(g.bad, bad)
	g.en = append(g.en, 0)
	g.parent = append(g.parent, parent)
	g.peidx = append(g.peidx, eidx)
	g.depth = append(g.depth, depth)
	return id
}

// badMask is the property bitmask of st: bit i ⇔ props[i].Bad holds.
func badMask(m *gcmodel.Model, props []Property, st gcmodel.SysState) uint32 {
	gl := gcmodel.Global{Model: m, State: st}
	var mask uint32
	for i := range props {
		if props[i].Bad(gl) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// takenMask computes the fairness entities served by the transition
// su —ev→ ns:
//
//   - a collector or mutator step serves that process's entity (system
//     responder halves are attributed to the requester: the system is
//     always willing, so fairness obligations belong to the requesting
//     process);
//   - a mutator step that starts from or lands in a state where the
//     mutator holds a polled pending bit (HSP) additionally serves the
//     mutator's handshake-response entity — it advances the handshake
//     protocol (poll, handshake work, done);
//   - the system's internal dequeue step serves the drain entity of
//     the buffer it pops.
func (g *graph) takenMask(su gcmodel.SysState, ev cimp.Event, ns gcmodel.SysState) uint64 {
	sysPID := g.m.SysPID()
	if ev.Proc == sysPID {
		if !ev.Tau() {
			// The system never initiates rendezvous; defensive only.
			return 0
		}
		sb := gcmodel.Global{Model: g.m, State: su}.Sys().Bufs
		nb := gcmodel.Global{Model: g.m, State: ns}.Sys().Bufs
		for p := range sb {
			if len(nb[p]) < len(sb[p]) {
				return g.ents.drain(cimp.PID(p))
			}
		}
		return 0
	}
	mask := g.ents.proc(ev.Proc)
	if ev.Proc != gcmodel.GCPID {
		mi := int(ev.Proc) - 1
		srcHSP := (gcmodel.Global{Model: g.m, State: su}).Mut(mi).HSP
		dstHSP := (gcmodel.Global{Model: g.m, State: ns}).Mut(mi).HSP
		if srcHSP || dstHSP {
			mask |= g.ents.hs(mi)
		}
	}
	return mask
}
