package cimp

// ReferenceSuccessors is the pair-by-pair composition of the system
// transition relation that System.Successors computes with each
// process's Heads cached: τ steps from TauSuccessors, then every Offer of
// p against the Answers of every peer q in ascending order. It recomputes
// Heads for every (offer, peer) pair and is kept only as the test oracle
// for the enumeration order of the fast path (order_test.go).
func ReferenceSuccessors[S any](sys System[S], yield func(next System[S], ev Event)) {
	post := func(c Config[S]) Config[S] {
		if sys.DisableFusion {
			return c
		}
		return fuse(c)
	}
	for p := range sys.Procs {
		pid := PID(p)
		TauSuccessors(sys.Procs[p], func(next Config[S], label string) {
			ns := sys.CloneShallow()
			ns.Procs[p] = post(next)
			yield(ns, Event{Proc: pid, Peer: -1, Label: label})
		})
		for _, off := range Offers(sys.Procs[p]) {
			for q := range sys.Procs {
				if q == p {
					continue
				}
				for _, ans := range Answers(sys.Procs[q], off.Alpha) {
					for _, pNext := range off.Accept(ans.Beta) {
						ns := sys.CloneShallow()
						ns.Procs[p] = post(pNext)
						ns.Procs[q] = post(ans.Next)
						yield(ns, Event{
							Proc: pid, Peer: PID(q),
							Label: off.Label, PeerLabel: ans.Label,
							Alpha: off.Alpha, Beta: ans.Beta,
						})
					}
				}
			}
		}
	}
}

// ReferenceHeads is Heads without the shortcut for Choose alternatives
// that are already actions: every alternative is pushed onto a fresh
// stack and unfolded by Norm. It is the test oracle for that shortcut.
func ReferenceHeads[S any](stack []Com[S], s S) []Head[S] {
	stack = Norm(stack, s)
	if len(stack) == 0 {
		return nil
	}
	c, ok := stack[0].(*Choose[S])
	if !ok {
		return []Head[S]{{Act: stack[0], Cont: stack[1:]}}
	}
	var hs []Head[S]
	for _, alt := range c.Alts {
		hs = append(hs, ReferenceHeads(pushed(stack[1:], alt), s)...)
	}
	return hs
}
