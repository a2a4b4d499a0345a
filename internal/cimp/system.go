package cimp

// PID identifies a process in a flat parallel composition.
type PID int

// Event describes one system transition for trace reporting.
type Event struct {
	// Proc is the process that moved; for a rendezvous it is the requester.
	Proc PID
	// Peer is the responder of a rendezvous, or -1 for a τ step.
	Peer PID
	// Label is the label of the command that fired (the request label for
	// a rendezvous).
	Label string
	// PeerLabel is the responder's label for a rendezvous, else "".
	PeerLabel string
	// Alpha and Beta carry the rendezvous messages, nil for τ steps.
	Alpha, Beta Msg
}

// Tau marks τ-step events.
func (e Event) Tau() bool { return e.Peer < 0 }

// System is the flat parallel composition of CIMP processes sharing local
// state type S (paper Figure 8). Process transitions interleave at the top
// level with no action hiding; rendezvous synchronizes exactly two
// processes.
type System[S any] struct {
	Procs []Config[S]
	// DisableFusion turns off the merging of register-only (Fuse-marked)
	// LocalOps into the preceding transition. Fusion is a sound
	// stutter-reduction — fused steps touch no state observable by other
	// processes — and is on by default; disabling it recovers the fully
	// fine-grained semantics for validation runs.
	DisableFusion bool
}

// CloneShallow copies the process table (the configurations themselves are
// persistent values and are shared).
func (sys System[S]) CloneShallow() System[S] {
	ps := make([]Config[S], len(sys.Procs))
	copy(ps, sys.Procs)
	return System[S]{Procs: ps, DisableFusion: sys.DisableFusion}
}

// fuse repeatedly executes Fuse-marked deterministic LocalOps at the head
// of the configuration, merging them into the transition that produced
// it. Only single-successor applications are merged; a Fuse-marked op
// that blocks or branches is left for the normal step relation.
func fuse[S any](cfg Config[S]) Config[S] {
	for i := 0; i < maxUnfold; i++ {
		stack := Norm(cfg.Stack, cfg.Data)
		cfg.Stack = stack
		if len(stack) == 0 {
			return cfg
		}
		op, ok := stack[0].(*LocalOp[S])
		if !ok || !op.Fuse {
			return cfg
		}
		next := op.F(cfg.Data)
		if len(next) != 1 {
			return cfg
		}
		cfg = Config[S]{Stack: stack[1:], Data: next[0]}
	}
	panic("cimp: fusion diverged")
}

// Successors enumerates every enabled system transition from sys,
// invoking yield with the successor system state and the event that
// produced it. Successor states share all unchanged process
// configurations with sys.
//
// Two rules apply (paper Figure 8):
//
//	τ:          one process takes a local step;
//	rendezvous: a Request of process p synchronizes with a Response of a
//	            distinct process q; both update local state simultaneously.
//
// Every process's Heads are computed once per call. The enumeration
// order is fixed, because checkpoints and counterexample traces record
// transitions by their index in it: for each process p, first p's τ
// steps in head order, then p's Request heads in head order, each
// paired with every peer q ≠ p in ascending order, q's Response heads in
// head order, each reply, and each result of the Request's Ret. It is
// the order of composing TauSuccessors, Offers and Answers pair by pair.
func (sys System[S]) Successors(yield func(next System[S], ev Event)) {
	post := func(c Config[S]) Config[S] {
		if sys.DisableFusion {
			return c
		}
		return fuse(c)
	}
	// heads holds every process's Heads back to back; process p's are
	// heads[off[p]:off[p+1]].
	var offBuf [8]int
	off := append(offBuf[:0], 0)
	heads := make([]Head[S], 0, 8*len(sys.Procs))
	for _, cfg := range sys.Procs {
		heads = appendHeads(heads, cfg.Stack, cfg.Data)
		off = append(off, len(heads))
	}
	for p, cfg := range sys.Procs {
		pid := PID(p)
		hp := heads[off[p]:off[p+1]]
		// τ steps.
		for _, h := range hp {
			op, ok := h.Act.(*LocalOp[S])
			if !ok {
				continue
			}
			for _, s2 := range op.F(cfg.Data) {
				ns := sys.CloneShallow()
				ns.Procs[p] = post(Config[S]{Stack: Norm(h.Cont, s2), Data: s2})
				yield(ns, Event{Proc: pid, Peer: -1, Label: op.L})
			}
		}
		// Rendezvous with every other process.
		for _, h := range hp {
			req, ok := h.Act.(*Request[S])
			if !ok {
				continue
			}
			alpha := req.Act(cfg.Data)
			for q, peer := range sys.Procs {
				if q == p {
					continue
				}
				for _, hq := range heads[off[q]:off[q+1]] {
					resp, ok := hq.Act.(*Response[S])
					if !ok {
						continue
					}
					for _, r := range resp.F(peer.Data, alpha) {
						qNext := Config[S]{Stack: Norm(hq.Cont, r.S), Data: r.S}
						for _, s2 := range req.Ret(cfg.Data, r.Msg) {
							ns := sys.CloneShallow()
							ns.Procs[p] = post(Config[S]{Stack: Norm(h.Cont, s2), Data: s2})
							ns.Procs[q] = post(qNext)
							yield(ns, Event{
								Proc: pid, Peer: PID(q),
								Label: req.L, PeerLabel: resp.L,
								Alpha: alpha, Beta: r.Msg,
							})
						}
					}
				}
			}
		}
	}
}

// Deadlocked reports whether no transition is enabled and at least one
// process has commands left to run.
func (sys System[S]) Deadlocked() bool {
	any := false
	sys.Successors(func(System[S], Event) { any = true })
	if any {
		return false
	}
	for _, p := range sys.Procs {
		if !Terminated(p) {
			return true
		}
	}
	return false
}
