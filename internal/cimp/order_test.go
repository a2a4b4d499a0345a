package cimp_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cimp"
	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/gcmodel"
	"repro/internal/tso"
)

// The order oracle: System.Successors computes every process's Heads
// once per state, and must still enumerate exactly the transitions of
// the pair-by-pair composition of TauSuccessors, Offers and Answers
// (cimp.ReferenceSuccessors), in the same order. Checkpoints and
// counterexample traces record a transition by its index in this
// enumeration, so an order change would silently re-route recorded
// event indices. Both enumerations share Heads, so Heads is checked
// separately against cimp.ReferenceHeads at every process of every
// state.

// step is one enumerated transition: its event and the fingerprint of
// the successor it produced.
type step struct {
	ev cimp.Event
	fp string
}

// checkOrder explores the states reachable from init breadth-first, up
// to maxStates distinct states, and compares the fast and reference
// enumerations at every one. It returns the number of states compared.
func checkOrder[S any](t *testing.T, init cimp.System[S], fp func(cimp.System[S]) string, maxStates int) int {
	t.Helper()
	seen := map[string]bool{fp(init): true}
	queue := []cimp.System[S]{init}
	for n := 0; n < len(queue); n++ {
		st := queue[n]
		for p, cfg := range st.Procs {
			if !sameHeads(cimp.Heads(cfg.Stack, cfg.Data), cimp.ReferenceHeads(cfg.Stack, cfg.Data)) {
				t.Fatalf("state %d, process %d: Heads differs from the reference", n, p)
			}
		}
		var fast, ref []step
		var next []cimp.System[S]
		st.Successors(func(ns cimp.System[S], ev cimp.Event) {
			fast = append(fast, step{ev, fp(ns)})
			next = append(next, ns)
		})
		cimp.ReferenceSuccessors(st, func(ns cimp.System[S], ev cimp.Event) {
			ref = append(ref, step{ev, fp(ns)})
		})
		if len(fast) != len(ref) {
			t.Fatalf("state %d: %d successors, reference has %d", n, len(fast), len(ref))
		}
		for i := range fast {
			if !reflect.DeepEqual(fast[i].ev, ref[i].ev) {
				t.Fatalf("state %d, event %d: %+v, reference %+v", n, i, fast[i].ev, ref[i].ev)
			}
			if fast[i].fp != ref[i].fp {
				t.Fatalf("state %d, event %d (%s): successor differs from the reference", n, i, fast[i].ev.Label)
			}
		}
		for i, ns := range next {
			if len(seen) >= maxStates {
				break
			}
			if !seen[fast[i].fp] {
				seen[fast[i].fp] = true
				queue = append(queue, ns)
			}
		}
	}
	return len(queue)
}

// sameHeads reports whether two head lists name the same actions with
// the same continuations, in the same order.
func sameHeads[S any](a, b []cimp.Head[S]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Act != b[i].Act || len(a[i].Cont) != len(b[i].Cont) {
			return false
		}
		for j := range a[i].Cont {
			if a[i].Cont[j] != b[i].Cont[j] {
				return false
			}
		}
	}
	return true
}

// TestSuccessorOrderPresets compares the two enumerations on capped runs
// of every preset under TSO and SC, fused and (for tiny) unfused.
func TestSuccessorOrderPresets(t *testing.T) {
	for _, name := range core.PresetNames() {
		for _, sc := range []bool{false, true} {
			mem := "tso"
			if sc {
				mem = "sc"
			}
			t.Run(name+"/"+mem, func(t *testing.T) {
				cfg, err := core.PresetConfig(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg.SCMemory = sc
				m, err := gcmodel.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				init := m.Initial()
				n := checkOrder(t, init, m.Fingerprint, 1500)
				if name == "tiny" {
					init.DisableFusion = true
					n += checkOrder(t, init, m.Fingerprint, 1500)
				}
				t.Logf("%d states compared", n)
			})
		}
	}
}

// TestSuccessorOrderRandPrograms compares the two enumerations on every
// reachable state of the diffcheck.RandProgram corpus, each program
// encoded as CIMP threads against a TSO memory process (see encodeTSO).
func TestSuccessorOrderRandPrograms(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 40; seed++ {
		p := diffcheck.RandProgram(rand.New(rand.NewSource(seed)))
		for _, fused := range []bool{true, false} {
			init, fp := encodeTSO(p)
			init.DisableFusion = !fused
			total += checkOrder(t, init, fp, 1<<20)
		}
	}
	t.Logf("%d states compared", total)
}

// --- A CIMP encoding of TSO litmus programs -----------------------------

// tsoLocal is the local state of a litmus thread (self, regs) or of the
// memory process (mem, bufs).
type tsoLocal struct {
	self int
	regs []tso.Word
	mem  []tso.Word
	bufs [][]tso.Write
}

type tsoOp int

const (
	opRead tsoOp = iota
	opWrite
	opFence
	opCAS
)

// tsoReq is a thread's request to the memory process; tsoResp its reply.
type tsoReq struct {
	op       tsoOp
	p        int
	addr     tso.Addr
	val, old tso.Word
}

type tsoResp struct{ val tso.Word }

func (l *tsoLocal) clone() *tsoLocal {
	n := &tsoLocal{self: l.self, regs: append([]tso.Word(nil), l.regs...), mem: append([]tso.Word(nil), l.mem...)}
	for _, b := range l.bufs {
		n.bufs = append(n.bufs, append([]tso.Write(nil), b...))
	}
	return n
}

// request builds a thread Request; set, if non-nil, stores the reply
// into a fresh copy of the thread's registers.
func request(label string, act func(*tsoLocal) tsoReq, set func(*tsoLocal, tsoResp)) cimp.Com[*tsoLocal] {
	return &cimp.Request[*tsoLocal]{
		L: label,
		Act: func(l *tsoLocal) cimp.Msg {
			r := act(l)
			r.p = l.self
			return r
		},
		Ret: func(l *tsoLocal, beta cimp.Msg) []*tsoLocal {
			if set == nil {
				return []*tsoLocal{l}
			}
			n := l.clone()
			set(n, beta.(tsoResp))
			return []*tsoLocal{n}
		},
	}
}

// response builds a memory-process Response for one request kind.
func response(label string, op tsoOp, f func(*tsoLocal, tsoReq) []cimp.Reply[*tsoLocal]) cimp.Com[*tsoLocal] {
	return &cimp.Response[*tsoLocal]{L: label, F: func(l *tsoLocal, alpha cimp.Msg) []cimp.Reply[*tsoLocal] {
		r := alpha.(tsoReq)
		if r.op != op {
			return nil
		}
		return f(l, r)
	}}
}

// thread encodes one litmus thread. Every instruction is followed by a
// fused register-only step, so the encoding also exercises fusion, and a
// fence may also be elided by a τ step, so a thread can offer a τ and a
// Request head at once.
func thread(instrs []tso.Instr) cimp.Com[*tsoLocal] {
	tick := cimp.Det("tick", (*tsoLocal).clone, func(l *tsoLocal) *tsoLocal {
		l.regs[len(l.regs)-1]++
		return l
	})
	var cs []cimp.Com[*tsoLocal]
	for _, in := range instrs {
		switch in := in.(type) {
		case tso.St:
			cs = append(cs, request("st", func(*tsoLocal) tsoReq {
				return tsoReq{op: opWrite, addr: in.Addr, val: in.Val}
			}, nil))
		case tso.Ld:
			cs = append(cs, request("ld", func(*tsoLocal) tsoReq {
				return tsoReq{op: opRead, addr: in.Addr}
			}, func(l *tsoLocal, r tsoResp) { l.regs[in.Dst] = r.val }))
		case tso.MFence:
			cs = append(cs, &cimp.Choose[*tsoLocal]{Alts: []cimp.Com[*tsoLocal]{
				request("mfence", func(*tsoLocal) tsoReq { return tsoReq{op: opFence} }, nil),
				&cimp.LocalOp[*tsoLocal]{L: "elide-fence", F: func(l *tsoLocal) []*tsoLocal { return []*tsoLocal{l} }},
			}})
		case tso.CAS:
			cs = append(cs, request("cas", func(*tsoLocal) tsoReq {
				return tsoReq{op: opCAS, addr: in.Addr, old: in.Old, val: in.New}
			}, func(l *tsoLocal, r tsoResp) { l.regs[in.Dst] = r.val }))
		default:
			panic(fmt.Sprintf("encodeTSO: unsupported instruction %T", in))
		}
		cs = append(cs, tick)
	}
	return cimp.Seqs(cs...)
}

// memory is the TSO memory process: a loop over one Response per
// request kind and the internal dequeue step, which commits the oldest
// buffered store of any thread.
func memory() cimp.Com[*tsoLocal] {
	reply := func(l *tsoLocal, v tso.Word) []cimp.Reply[*tsoLocal] {
		return []cimp.Reply[*tsoLocal]{{S: l, Msg: tsoResp{val: v}}}
	}
	return &cimp.Loop[*tsoLocal]{Body: &cimp.Choose[*tsoLocal]{Alts: []cimp.Com[*tsoLocal]{
		response("mem-read", opRead, func(l *tsoLocal, r tsoReq) []cimp.Reply[*tsoLocal] {
			buf := l.bufs[r.p]
			for i := len(buf) - 1; i >= 0; i-- {
				if buf[i].Addr == r.addr {
					return reply(l, buf[i].Val)
				}
			}
			return reply(l, l.mem[r.addr])
		}),
		response("mem-write", opWrite, func(l *tsoLocal, r tsoReq) []cimp.Reply[*tsoLocal] {
			n := l.clone()
			n.bufs[r.p] = append(n.bufs[r.p], tso.Write{Addr: r.addr, Val: r.val})
			return reply(n, 0)
		}),
		response("mem-fence", opFence, func(l *tsoLocal, r tsoReq) []cimp.Reply[*tsoLocal] {
			if len(l.bufs[r.p]) != 0 {
				return nil
			}
			return reply(l, 0)
		}),
		response("mem-cas", opCAS, func(l *tsoLocal, r tsoReq) []cimp.Reply[*tsoLocal] {
			if len(l.bufs[r.p]) != 0 {
				return nil
			}
			if l.mem[r.addr] != r.old {
				return reply(l, 0)
			}
			n := l.clone()
			n.mem[r.addr] = r.val
			return reply(n, 1)
		}),
		&cimp.LocalOp[*tsoLocal]{L: "mem-dequeue", F: func(l *tsoLocal) []*tsoLocal {
			var out []*tsoLocal
			for p, buf := range l.bufs {
				if len(buf) == 0 {
					continue
				}
				n := l.clone()
				n.mem[buf[0].Addr] = buf[0].Val
				n.bufs[p] = n.bufs[p][1:]
				out = append(out, n)
			}
			return out
		}},
	}}}
}

// echo is a second responder: it answers every read with 0 (counting
// the reads it served) and every fence, so a thread's request has two
// peers and the peer order is observable. Its read alternative is a Seq,
// which Heads must unfold rather than take as an action directly.
func echo() cimp.Com[*tsoLocal] {
	tick := cimp.Det("echo-tick", (*tsoLocal).clone, func(l *tsoLocal) *tsoLocal {
		l.regs[0]++
		return l
	})
	answer := func(l *tsoLocal, _ tsoReq) []cimp.Reply[*tsoLocal] {
		return []cimp.Reply[*tsoLocal]{{S: l, Msg: tsoResp{}}}
	}
	return &cimp.Loop[*tsoLocal]{Body: &cimp.Choose[*tsoLocal]{Alts: []cimp.Com[*tsoLocal]{
		cimp.Seqs[*tsoLocal](response("echo-read", opRead, answer), tick),
		response("echo-fence", opFence, answer),
	}}}
}

// encodeTSO builds the CIMP system of p (threads, the echo process, then
// the memory process) and a fingerprint function for its states.
func encodeTSO(p tso.Program) (cimp.System[*tsoLocal], func(cimp.System[*tsoLocal]) string) {
	var progs []cimp.Com[*tsoLocal]
	var procs []cimp.Config[*tsoLocal]
	for i, th := range p.Threads {
		prog := thread(th)
		progs = append(progs, prog)
		// The last register counts the thread's fused ticks.
		l := &tsoLocal{self: i, regs: make([]tso.Word, p.NumRegs+1)}
		procs = append(procs, cimp.Config[*tsoLocal]{Stack: cimp.Norm([]cimp.Com[*tsoLocal]{prog}, l), Data: l})
	}
	ep := echo()
	progs = append(progs, ep)
	el := &tsoLocal{self: len(p.Threads), regs: make([]tso.Word, 1)}
	procs = append(procs, cimp.Config[*tsoLocal]{Stack: cimp.Norm([]cimp.Com[*tsoLocal]{ep}, el), Data: el})
	mem := memory()
	progs = append(progs, mem)
	ml := &tsoLocal{self: len(p.Threads) + 1, mem: make([]tso.Word, p.NumAddrs), bufs: make([][]tso.Write, len(p.Threads))}
	procs = append(procs, cimp.Config[*tsoLocal]{Stack: cimp.Norm([]cimp.Com[*tsoLocal]{mem}, ml), Data: ml})
	ix := cimp.NewIndex(progs...)
	fp := func(st cimp.System[*tsoLocal]) string {
		var b []byte
		for _, c := range st.Procs {
			b = ix.AppendStack(b, c.Stack)
			b = fmt.Appendf(b, "%v|%v|%v;", c.Data.regs, c.Data.mem, c.Data.bufs)
		}
		return string(b)
	}
	return cimp.System[*tsoLocal]{Procs: procs}, fp
}
