package cimp

import "fmt"

// Config is a process configuration: a frame stack of commands (element 0
// is the top / next to execute) paired with the process's local data state.
type Config[S any] struct {
	Stack []Com[S]
	Data  S
}

// maxUnfold bounds deterministic control unfolding; exceeding it indicates
// an action-free loop in the program, which is a modeling error.
const maxUnfold = 10_000

// Norm unfolds deterministic control (Seq, Cond, While, Loop, Skip) on top
// of the stack until the head is an action command (LocalOp, Request,
// Response), a Choose, or the stack is empty. Conditions are pure functions
// of the data state, so this unfolding is deterministic and corresponds to
// the paper's derived evaluation-context semantics: control between two
// atomic actions is folded into the preceding transition.
//
// The returned stack is fresh or shares a suffix with the input; the input
// is not modified.
func Norm[S any](stack []Com[S], s S) []Com[S] {
	for i := 0; ; i++ {
		if i > maxUnfold {
			panic("cimp: control unfolding diverged (loop with no action command)")
		}
		if len(stack) == 0 {
			return stack
		}
		switch c := stack[0].(type) {
		case *Skip[S]:
			stack = stack[1:]
		case *Seq[S]:
			ns := make([]Com[S], 0, len(stack)+1)
			ns = append(ns, c.A, c.B)
			ns = append(ns, stack[1:]...)
			stack = ns
		case *Cond[S]:
			branch := c.Else
			if c.C(s) {
				branch = c.Then
			}
			stack = pushed(stack[1:], branch)
		case *While[S]:
			if c.C(s) {
				ns := make([]Com[S], 0, len(stack)+1)
				ns = append(ns, c.Body)
				ns = append(ns, stack...) // While itself stays beneath the body
				stack = ns
			} else {
				stack = stack[1:]
			}
		case *Loop[S]:
			ns := make([]Com[S], 0, len(stack)+1)
			ns = append(ns, c.Body)
			ns = append(ns, stack...) // Loop stays beneath the body
			stack = ns
		default:
			return stack
		}
	}
}

func pushed[S any](stack []Com[S], c Com[S]) []Com[S] {
	ns := make([]Com[S], 0, len(stack)+1)
	ns = append(ns, c)
	ns = append(ns, stack...)
	return ns
}

// Head is one enabled action at the top of a (normalized) configuration:
// the action command itself together with the continuation stack that
// remains after it fires. Choose nodes fan out into several Heads.
type Head[S any] struct {
	Act  Com[S] // *LocalOp, *Request, or *Response
	Cont []Com[S]
}

// Heads enumerates the action commands reachable from the top of the stack
// by resolving Choose alternatives and unfolding deterministic control.
// The configuration's data state is needed to evaluate conditions.
func Heads[S any](stack []Com[S], s S) []Head[S] {
	return appendHeads(nil, stack, s)
}

// appendHeads appends the Heads of stack to dst. A Choose alternative
// that is already an action command needs no unfolding, so its head
// continues with the Choose's own continuation and no stack is built.
func appendHeads[S any](dst []Head[S], stack []Com[S], s S) []Head[S] {
	stack = Norm(stack, s)
	if len(stack) == 0 {
		return dst
	}
	switch c := stack[0].(type) {
	case *Choose[S]:
		for _, alt := range c.Alts {
			switch alt.(type) {
			case *LocalOp[S], *Request[S], *Response[S]:
				dst = append(dst, Head[S]{Act: alt, Cont: stack[1:]})
			default:
				dst = appendHeads(dst, pushed(stack[1:], alt), s)
			}
		}
		return dst
	case *LocalOp[S], *Request[S], *Response[S]:
		return append(dst, Head[S]{Act: stack[0], Cont: stack[1:]})
	default:
		panic(fmt.Sprintf("cimp: Norm returned unexpected head %T", c))
	}
}

// TauSuccessors yields the successor configurations of all enabled local
// (τ) actions of cfg, i.e. every LocalOp head. Each successor is already
// normalized. The results share structure with cfg; LocalOp step functions
// are responsible for the freshness of successor data states.
func TauSuccessors[S any](cfg Config[S], yield func(next Config[S], label string)) {
	for _, h := range Heads(cfg.Stack, cfg.Data) {
		op, ok := h.Act.(*LocalOp[S])
		if !ok {
			continue
		}
		for _, s2 := range op.F(cfg.Data) {
			yield(Config[S]{Stack: Norm(h.Cont, s2), Data: s2}, op.L)
		}
	}
}

// Offer is a pending request: the α message the process would send, the
// continuation applied once a response β arrives, and the request label.
type Offer[S any] struct {
	Label string
	Alpha Msg
	// Accept computes the successor configurations for a response β;
	// an empty result refuses the response.
	Accept func(beta Msg) []Config[S]
}

// Offers enumerates the Requests enabled at the top of cfg.
func Offers[S any](cfg Config[S]) []Offer[S] {
	var out []Offer[S]
	for _, h := range Heads(cfg.Stack, cfg.Data) {
		req, ok := h.Act.(*Request[S])
		if !ok {
			continue
		}
		cont := h.Cont
		alpha := req.Act(cfg.Data)
		out = append(out, Offer[S]{
			Label: req.L,
			Alpha: alpha,
			Accept: func(beta Msg) []Config[S] {
				var cs []Config[S]
				for _, s2 := range req.Ret(cfg.Data, beta) {
					cs = append(cs, Config[S]{Stack: Norm(cont, s2), Data: s2})
				}
				return cs
			},
		})
	}
	return out
}

// Answer is one way a process can answer a request α: the successor
// configuration, the response β, and the response label.
type Answer[S any] struct {
	Label string
	Beta  Msg
	Next  Config[S]
}

// Answers enumerates the ways cfg can answer the request α via an enabled
// Response head.
func Answers[S any](cfg Config[S], alpha Msg) []Answer[S] {
	var out []Answer[S]
	for _, h := range Heads(cfg.Stack, cfg.Data) {
		resp, ok := h.Act.(*Response[S])
		if !ok {
			continue
		}
		for _, r := range resp.F(cfg.Data, alpha) {
			out = append(out, Answer[S]{
				Label: resp.L,
				Beta:  r.Msg,
				Next:  Config[S]{Stack: Norm(h.Cont, r.S), Data: r.S},
			})
		}
	}
	return out
}

// AtLabels returns the labels of all action commands enabled at the top of
// the configuration. It implements the paper's "at p ℓ" predicate: process
// p is at ℓ iff ℓ ∈ AtLabels of p's configuration.
func AtLabels[S any](cfg Config[S]) []string {
	hs := Heads(cfg.Stack, cfg.Data)
	out := make([]string, 0, len(hs))
	for _, h := range hs {
		out = append(out, h.Act.Label())
	}
	return out
}

// At reports whether the configuration is at a command labeled ℓ.
func At[S any](cfg Config[S], label string) bool {
	for _, l := range AtLabels(cfg) {
		if l == label {
			return true
		}
	}
	return false
}

// Terminated reports whether the process has no commands left to run.
func Terminated[S any](cfg Config[S]) bool {
	return len(Norm(cfg.Stack, cfg.Data)) == 0
}
