package analysis

import (
	"fmt"
	"sort"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
)

// CFG is the control-flow graph of one process's program. Nodes are the
// action commands (LocalOps and Requests; control constructs fold away,
// exactly as the atomic-action semantics folds them into transitions).
// An edge u→v means v can be the next action after u on some control
// path; conditions are treated as non-deterministic, so the CFG
// over-approximates the set of executions — path-universal rules
// ("every path passes a barrier") are therefore sound to check on it.
type CFG struct {
	PID   cimp.PID
	Nodes []Node
	// Succ is the adjacency list; Entry are the nodes the program can
	// start at.
	Succ  [][]int
	Entry []int

	preds [][]int
	cfg   *gcmodel.Config
	kinds [gcmodel.NumReqKinds]KindEffect
	probe *gcmodel.Local
}

// Node is one CFG node.
type Node struct {
	Com   cimp.Com[*gcmodel.Local]
	Label string
	// Req is the probed request for Request nodes, nil for LocalOps.
	Req *gcmodel.Req
}

type flow struct {
	firsts   []int
	exits    []int
	nullable bool
}

type cfgBuilder struct {
	g   *CFG
	ids map[cimp.Com[*gcmodel.Local]]int
	adj []map[int]bool
	err error
}

// buildCFG constructs the CFG of one process. probe is the synthetic
// local state used to extract each Request node's declared request.
func buildCFG(pid cimp.PID, root cimp.Com[*gcmodel.Local], mcfg *gcmodel.Config, probe *gcmodel.Local) (*CFG, error) {
	g := &CFG{PID: pid, cfg: mcfg, kinds: KindEffects(), probe: probe}
	b := &cfgBuilder{g: g, ids: make(map[cimp.Com[*gcmodel.Local]]int)}
	f := b.build(root)
	if b.err != nil {
		return nil, b.err
	}
	g.Entry = f.firsts
	// A Loop never exits; a terminating program's exits simply have no
	// successors. Flatten the adjacency sets deterministically.
	g.Succ = make([][]int, len(g.Nodes))
	g.preds = make([][]int, len(g.Nodes))
	for u, set := range b.adj {
		for v := range set {
			g.Succ[u] = append(g.Succ[u], v)
			g.preds[v] = append(g.preds[v], u)
		}
	}
	for u := range g.Succ {
		sort.Ints(g.Succ[u])
		sort.Ints(g.preds[u])
	}
	return g, nil
}

func (b *cfgBuilder) node(c cimp.Com[*gcmodel.Local]) int {
	if id, ok := b.ids[c]; ok {
		return id
	}
	id := len(b.g.Nodes)
	n := Node{Com: c, Label: c.Label()}
	if r, ok := c.(*cimp.Request[*gcmodel.Local]); ok {
		req, err := probeAct(r, b.g.probe)
		if err != nil && b.err == nil {
			b.err = err
		}
		n.Req = &req
	}
	b.ids[c] = id
	b.g.Nodes = append(b.g.Nodes, n)
	b.adj = append(b.adj, make(map[int]bool))
	return id
}

func (b *cfgBuilder) edge(us, vs []int) {
	for _, u := range us {
		for _, v := range vs {
			b.adj[u][v] = true
		}
	}
}

func (b *cfgBuilder) build(c cimp.Com[*gcmodel.Local]) flow {
	switch n := c.(type) {
	case nil, *cimp.Skip[*gcmodel.Local]:
		return flow{nullable: true}
	case *cimp.LocalOp[*gcmodel.Local], *cimp.Request[*gcmodel.Local], *cimp.Response[*gcmodel.Local]:
		id := b.node(c)
		return flow{firsts: []int{id}, exits: []int{id}}
	case *cimp.Seq[*gcmodel.Local]:
		fa, fb := b.build(n.A), b.build(n.B)
		b.edge(fa.exits, fb.firsts)
		f := flow{firsts: fa.firsts, exits: fb.exits, nullable: fa.nullable && fb.nullable}
		if fa.nullable {
			f.firsts = union(f.firsts, fb.firsts)
		}
		if fb.nullable {
			f.exits = union(f.exits, fa.exits)
		}
		return f
	case *cimp.Cond[*gcmodel.Local]:
		ft, fe := b.build(n.Then), b.build(n.Else)
		return flow{
			firsts:   union(ft.firsts, fe.firsts),
			exits:    union(ft.exits, fe.exits),
			nullable: ft.nullable || fe.nullable,
		}
	case *cimp.While[*gcmodel.Local]:
		fb := b.build(n.Body)
		b.edge(fb.exits, fb.firsts)
		return flow{firsts: fb.firsts, exits: fb.exits, nullable: true}
	case *cimp.Loop[*gcmodel.Local]:
		fb := b.build(n.Body)
		b.edge(fb.exits, fb.firsts)
		if fb.nullable && b.err == nil {
			b.err = fmt.Errorf("analysis: loop body with an action-free path")
		}
		return flow{firsts: fb.firsts}
	case *cimp.Choose[*gcmodel.Local]:
		var f flow
		for _, alt := range n.Alts {
			fa := b.build(alt)
			f.firsts = union(f.firsts, fa.firsts)
			f.exits = union(f.exits, fa.exits)
			f.nullable = f.nullable || fa.nullable
		}
		return f
	default:
		if b.err == nil {
			b.err = fmt.Errorf("analysis: unknown command type %T", c)
		}
		return flow{}
	}
}

func union(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, x := range a {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// bufferedWrite reports whether node n enqueues a TSO store.
func (g *CFG) bufferedWrite(n int) bool {
	r := g.Nodes[n].Req
	return r != nil && g.kinds[r.Kind].Buffered && !g.cfg.SCMemory
}

// flushes reports whether node n drains the requester's buffer (its
// kind completes only with an empty buffer).
func (g *CFG) flushes(n int) bool {
	r := g.Nodes[n].Req
	return r != nil && g.kinds[r.Kind].FlushGuard
}

// LockState is the lock-held lattice: bottom (unreached), definitely
// free, definitely held, or maybe (both reachable).
type LockState uint8

const (
	LockBottom LockState = iota
	LockFree
	LockHeld
	LockMaybe
)

func (a LockState) join(b LockState) LockState {
	switch {
	case a == LockBottom:
		return b
	case b == LockBottom || a == b:
		return a
	default:
		return LockMaybe
	}
}

func (a LockState) String() string {
	switch a {
	case LockFree:
		return "free"
	case LockHeld:
		return "held"
	case LockMaybe:
		return "maybe"
	}
	return "bottom"
}

// LockHeldAt computes, for every node, whether this process holds the
// TSO lock when the node executes (at node entry). Forward dataflow:
// an RLock node exits held, an RUnlock node exits free, everything
// else is transparent; the program starts free.
func (g *CFG) LockHeldAt() []LockState {
	in := make([]LockState, len(g.Nodes))
	out := make([]LockState, len(g.Nodes))
	transfer := func(n int, s LockState) LockState {
		if r := g.Nodes[n].Req; r != nil {
			if g.kinds[r.Kind].AcquiresLock {
				return LockHeld
			}
			if g.kinds[r.Kind].ReleasesLock {
				return LockFree
			}
		}
		return s
	}
	work := append([]int(nil), g.Entry...)
	isEntry := make([]bool, len(g.Nodes))
	for _, e := range g.Entry {
		isEntry[e] = true
	}
	inWork := make([]bool, len(g.Nodes))
	for _, n := range work {
		inWork[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false
		s := LockBottom
		if isEntry[n] {
			s = LockFree
		}
		for _, p := range g.preds[n] {
			s = s.join(out[p])
		}
		in[n] = s
		ns := transfer(n, s)
		if ns != out[n] {
			out[n] = ns
			for _, v := range g.Succ[n] {
				if !inWork[v] {
					inWork[v] = true
					work = append(work, v)
				}
			}
		}
	}
	return in
}

// BitSet is a fixed-capacity bitset over CFG node IDs.
type BitSet []uint64

func newBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

func (s BitSet) set(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s BitSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s BitSet) or(o BitSet) {
	for i, w := range o {
		s[i] |= w
	}
}

func (s BitSet) equal(o BitSet) bool {
	for i, w := range o {
		if s[i] != w {
			return false
		}
	}
	return true
}

func (s BitSet) clone() BitSet { return append(BitSet(nil), s...) }

// Members lists the set bits in order.
func (s BitSet) Members() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// PendingAt computes the may-pending buffered-store analysis: for
// every node, the set of buffered-write nodes some execution can have
// enqueued, without an intervening flush, when the node executes (at
// node entry). disabled marks flush nodes to be treated as
// non-flushing, for fence-coverage queries; pass nil for the real
// program.
func (g *CFG) PendingAt(disabled map[int]bool) []BitSet {
	in := make([]BitSet, len(g.Nodes))
	out := make([]BitSet, len(g.Nodes))
	for i := range g.Nodes {
		in[i] = newBitSet(len(g.Nodes))
		out[i] = newBitSet(len(g.Nodes))
	}
	// Seed with every node: the bottom element (empty set) is also a
	// common fixpoint value, so entry-only seeding would stall before
	// reaching the first store.
	work := make([]int, len(g.Nodes))
	inWork := make([]bool, len(g.Nodes))
	for n := range work {
		work[n] = n
		inWork[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false
		s := newBitSet(len(g.Nodes))
		for _, p := range g.preds[n] {
			s.or(out[p])
		}
		in[n] = s
		// The transfer is monotone in the in-state (a flush node's out
		// does not depend on it at all), so compare-and-assign reaches
		// the fixpoint.
		ns := s.clone()
		if g.flushes(n) && !disabled[n] {
			ns = newBitSet(len(g.Nodes))
		}
		if g.bufferedWrite(n) {
			ns.set(n)
		}
		if !ns.equal(out[n]) {
			out[n] = ns
			for _, v := range g.Succ[n] {
				if !inWork[v] {
					inWork[v] = true
					work = append(work, v)
				}
			}
		}
	}
	return in
}

// reachAvoiding reports whether some path of length ≥ 1 from node
// `from` reaches node `to` without passing through an intermediate
// node satisfying avoid. (`to` itself is not tested against avoid.)
func (g *CFG) reachAvoiding(from, to int, avoid func(int) bool) bool {
	visited := make([]bool, len(g.Nodes))
	stack := append([]int(nil), g.Succ[from]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if visited[n] || avoid(n) {
			continue
		}
		visited[n] = true
		stack = append(stack, g.Succ[n]...)
	}
	return false
}

// EveryPathPasses reports whether every control path from node `from`
// to node `to` passes through an intermediate node satisfying via.
func (g *CFG) EveryPathPasses(from, to int, via func(int) bool) bool {
	return !g.reachAvoiding(from, to, via)
}
