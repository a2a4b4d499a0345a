package gcmodel

import (
	"repro/internal/cimp"
)

// This file builds the system process: the adaptation of Sewell et al.'s
// x86-TSO machine to CIMP shown in paper Figure 9, extended with the
// paper's treatment of allocation (an atomic global action), free, and the
// straightforward handshake mailboxes of §3.1. The system is a reactive
// loop: a non-deterministic choice over RESPONSE commands plus one
// internal LOCALOP that commits the oldest pending write of any unblocked
// process.

// sysRead implements the TSO load: the newest write to loc pending in p's
// own store buffer, else shared memory. Reads of locations belonging to
// freed objects yield poison (-2); they can occur only in ablated
// (deliberately unsafe) models, after the safety invariant has already
// been violated.
func sysRead(s *SysLocal, p cimp.PID, loc Loc) Val {
	buf := s.Bufs[p]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].Loc == loc {
			return buf[i].Val
		}
	}
	switch loc.Kind {
	case LFA:
		return BoolVal(s.FA)
	case LFM:
		return BoolVal(s.FM)
	case LPhase:
		return PhaseVal(s.Phase)
	case LMark:
		if !s.Heap.Valid(loc.R) {
			return -2
		}
		return BoolVal(s.Heap.Obj(loc.R).Flag)
	case LField:
		if !s.Heap.Valid(loc.R) {
			return -2
		}
		return RefVal(s.Heap.Load(loc.R, loc.F))
	}
	panic("gcmodel: bad location")
}

// doWrite is do-write-action: apply a dequeued store to shared memory.
// Writes to freed objects are dropped (possible only in ablated models).
// s is a copy-on-write clone (see cow), so a heap write first
// path-copies the written object.
func doWrite(s *SysLocal, w WAct) {
	switch w.Loc.Kind {
	case LFA:
		s.FA = w.Val.Bool()
	case LFM:
		s.FM = w.Val.Bool()
	case LPhase:
		s.Phase = w.Val.Phase()
	case LMark:
		if s.Heap.Valid(w.Loc.R) {
			s.Heap = s.Heap.Own(w.Loc.R)
			s.Heap.SetFlag(w.Loc.R, w.Val.Bool())
		}
	case LField:
		if s.Heap.Valid(w.Loc.R) {
			s.Heap = s.Heap.Own(w.Loc.R)
			s.Heap.Store(w.Loc.R, w.Loc.F, w.Val.Ref())
		}
	}
}

// notBlocked is the Figure 9 guard: p may read memory or commit stores
// only if no other process holds the TSO lock.
func notBlocked(s *SysLocal, p cimp.PID) bool {
	return s.Lock == -1 || s.Lock == p
}

// cow is the system handlers' copy-on-write clone of a system state. It
// shares the heap, every store buffer and Pending with l, and copies only
// the outer Bufs slice, so a handler may replace a buffer outright. A
// handler that writes anything shared must copy it first: the heap via
// heap.Heap.Own (doWrite, alloc, free), Pending via a fresh slice
// (hs-signal, hs-done). Buffers are never written in place, only
// replaced. The shared parts are read concurrently by checker workers
// expanding other states, so an in-place write would corrupt them; the
// public Local.Clone stays a deep copy for code outside this file.
func cow(l *Local) *Local {
	s := *l.Sys
	s.Bufs = append([][]WAct(nil), l.Sys.Bufs...)
	return &Local{Self: l.Self, Sys: &s}
}

// resp builds a system RESPONSE handling one request kind.
func resp(label string, kind ReqKind, f func(s *Local, req Req) []cimp.Reply[*Local]) cimp.Com[*Local] {
	return &cimp.Response[*Local]{L: label, F: func(s *Local, alpha cimp.Msg) []cimp.Reply[*Local] {
		req, ok := alpha.(Req)
		if !ok || req.Kind != kind {
			return nil
		}
		return f(s, req)
	}}
}

// one is a singleton reply whose state was produced by mutating a
// copy-on-write clone.
func one(s *Local, beta Resp) []cimp.Reply[*Local] {
	return []cimp.Reply[*Local]{{S: s, Msg: beta}}
}

// SysProgram builds the system process for a model configuration.
func (c *Config) SysProgram() cimp.Com[*Local] {
	alts := []cimp.Com[*Local]{
		resp("sys-read", RRead, func(l *Local, req Req) []cimp.Reply[*Local] {
			if !notBlocked(l.Sys, req.P) {
				return nil
			}
			// Reads do not change the system state; reply in place.
			return one(l, Resp{Val: sysRead(l.Sys, req.P, req.Loc)})
		}),

		resp("sys-write", RWrite, func(l *Local, req Req) []cimp.Reply[*Local] {
			if c.SCMemory {
				// Sequential-consistency oracle: commit immediately.
				if !notBlocked(l.Sys, req.P) {
					return nil
				}
				n := cow(l)
				doWrite(n.Sys, WAct{Loc: req.Loc, Val: req.Val})
				return one(n, Resp{})
			}
			if c.MaxBuf > 0 && len(l.Sys.Bufs[req.P]) >= c.MaxBuf {
				return nil // buffer full under the configured bound
			}
			n := cow(l)
			old := l.Sys.Bufs[req.P]
			buf := make([]WAct, len(old)+1)
			copy(buf, old)
			buf[len(old)] = WAct{Loc: req.Loc, Val: req.Val}
			n.Sys.Bufs[req.P] = buf
			return one(n, Resp{})
		}),

		resp("sys-mfence", RMFence, func(l *Local, req Req) []cimp.Reply[*Local] {
			if len(l.Sys.Bufs[req.P]) != 0 {
				return nil
			}
			return one(l, Resp{})
		}),

		resp("sys-lock", RLock, func(l *Local, req Req) []cimp.Reply[*Local] {
			if l.Sys.Lock != -1 {
				return nil
			}
			n := cow(l)
			n.Sys.Lock = req.P
			return one(n, Resp{})
		}),

		resp("sys-unlock", RUnlock, func(l *Local, req Req) []cimp.Reply[*Local] {
			if l.Sys.Lock != req.P || len(l.Sys.Bufs[req.P]) != 0 {
				return nil
			}
			n := cow(l)
			n.Sys.Lock = -1
			return one(n, Resp{})
		}),

		resp("sys-alloc", RAlloc, func(l *Local, req Req) []cimp.Reply[*Local] {
			if !notBlocked(l.Sys, req.P) || req.Mut <= 0 {
				return nil // blocked, or the requester's op budget is spent
			}
			var out []cimp.Reply[*Local]
			for _, r := range l.Sys.Heap.FreeRefs() {
				n := cow(l)
				flag := n.Sys.FA
				if c.AllocWhite {
					// Ablation E11: allocate with the unmarked sense.
					flag = !n.Sys.FM
				}
				n.Sys.Heap = n.Sys.Heap.Own(r)
				n.Sys.Heap.AllocAt(r, c.NFields, flag)
				out = append(out, cimp.Reply[*Local]{S: n, Msg: Resp{Ref: r}})
			}
			return out
		}),

		resp("sys-free", RFree, func(l *Local, req Req) []cimp.Reply[*Local] {
			if !notBlocked(l.Sys, req.P) || !l.Sys.Heap.Valid(req.Loc.R) {
				return nil
			}
			n := cow(l)
			n.Sys.Heap = n.Sys.Heap.Own(req.Loc.R)
			n.Sys.Heap.Free(req.Loc.R)
			return one(n, Resp{})
		}),

		resp("sys-refs", RRefsSnapshot, func(l *Local, req Req) []cimp.Reply[*Local] {
			if !notBlocked(l.Sys, req.P) {
				return nil
			}
			return one(l, Resp{W: l.Sys.Heap.Refs()})
		}),

		resp("sys-hs-start", RHsStart, func(l *Local, req Req) []cimp.Reply[*Local] {
			n := cow(l)
			n.Sys.HSType = req.HS
			n.Sys.Tag = req.Tag
			return one(n, Resp{})
		}),

		resp("sys-hs-signal", RHsSignal, func(l *Local, req Req) []cimp.Reply[*Local] {
			n := cow(l)
			n.Sys.Pending = append([]bool(nil), n.Sys.Pending...)
			n.Sys.Pending[req.Mut] = true
			return one(n, Resp{})
		}),

		resp("sys-hs-poll", RHsPoll, func(l *Local, req Req) []cimp.Reply[*Local] {
			m := int(req.P) - 1
			return one(l, Resp{Pending: l.Sys.Pending[m], HS: l.Sys.HSType, Tag: l.Sys.Tag})
		}),

		resp("sys-hs-done", RHsDone, func(l *Local, req Req) []cimp.Reply[*Local] {
			m := int(req.P) - 1
			if !l.Sys.Pending[m] {
				return nil
			}
			n := cow(l)
			n.Sys.Pending = append([]bool(nil), n.Sys.Pending...)
			n.Sys.Pending[m] = false
			n.Sys.W = n.Sys.W.Union(req.WM)
			return one(n, Resp{})
		}),

		resp("sys-hs-wait-all", RHsWaitAll, func(l *Local, req Req) []cimp.Reply[*Local] {
			for _, p := range l.Sys.Pending {
				if p {
					return nil
				}
			}
			n := cow(l)
			w := n.Sys.W
			n.Sys.W = 0
			return one(n, Resp{W: w})
		}),
	}
	if !c.NoDequeue {
		// The single internal transition of Figure 9: commit the oldest
		// pending write of any unblocked process.
		alts = append(alts, &cimp.LocalOp[*Local]{L: "sys-dequeue-write-buffer", F: func(l *Local) []*Local {
			var out []*Local
			for p := range l.Sys.Bufs {
				pid := cimp.PID(p)
				if len(l.Sys.Bufs[p]) == 0 || !notBlocked(l.Sys, pid) {
					continue
				}
				n := cow(l)
				w := n.Sys.Bufs[p][0]
				rest := n.Sys.Bufs[p][1:]
				if len(rest) == 0 {
					rest = nil
				}
				n.Sys.Bufs[p] = rest // shared with l: buffers are never written in place
				doWrite(n.Sys, w)
				out = append(out, n)
			}
			return out
		}})
	}
	return &cimp.Loop[*Local]{Body: &cimp.Choose[*Local]{Alts: alts}}
}
