package main

import (
	"fmt"
	"time"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

type state = cimp.System[*gcmodel.Local]

// replayResult is what the replay BFS found and what each layer of the
// checker cost inside it.
type replayResult struct {
	States, Transitions, Depth int
	Stopped                    explore.StopReason
	Violation                  string // first failing invariant ("" if none)
	TraceLen                   int    // BFS depth of the violating state

	Expanded              int   // states whose successors were enumerated
	SuccNs, FpNs, InvNs   int64 // time in Successors, FingerprintHash, NewView+preds
	SuccAllocs, SuccBytes uint64
	CheckNs               []int64 // per invariant.Check, in battery order
}

// replayChunk is the number of states a layer is worked in at a time, as
// explore's workers claim them, so that a chunk's successors are still
// in cache when they are fingerprinted and checked.
const replayChunk = 256

// replay is the benchmark's own single-threaded breadth-first search over
// the model's public API (Initial, Successors, FingerprintHash and the
// invariant predicates) with a plain visited map. It follows explore.Run's
// counting rules — MaxDepth stops before expanding layer MaxDepth, a
// violating layer is finished and then the search stops, the reported
// violation is the one at the smallest fingerprint hash — so its counts
// are a second oracle for the checker's, and because each chunk of a
// layer is worked in separate phases (enumerate, fingerprint, insert,
// check) it can time each phase without a timer call per state.
func replay(m *gcmodel.Model, checks []invariant.Check, maxDepth int, tr *tracer, parent int) replayResult {
	r := replayResult{CheckNs: make([]int64, len(checks))}
	seen := map[uint64]struct{}{}
	init := m.Initial()
	h0 := m.FingerprintHash(init)
	seen[h0] = struct{}{}
	r.States = 1
	if name := r.check(m, checks, []state{init})[0]; name != "" {
		r.Stopped, r.Violation = explore.StopViolation, name
		return r
	}

	layer := []state{init}
	var succ, fresh []state
	var hashes, freshHash []uint64
	for depth := 0; len(layer) > 0; depth++ {
		r.Depth = depth
		if maxDepth > 0 && depth >= maxDepth {
			r.Stopped = explore.StopMaxDepth
			break
		}
		sp := tr.begin(parent, fmt.Sprintf("layer %d", depth))
		var next []state
		var violHash uint64
		var dSucc, dFp, dInv time.Duration
		var allocs uint64
		transitions, states := 0, 0
		for lo := 0; lo < len(layer); lo += replayChunk {
			chunk := layer[lo:min(lo+replayChunk, len(layer))]

			// Enumerate. Only Successors and the append run between the
			// two allocation reads, so the delta is the successor
			// engine's.
			succ = succ[:0]
			yield := func(ns state, _ cimp.Event) { succ = append(succ, ns) }
			m0 := readMem()
			t := time.Now()
			for _, st := range chunk {
				m.Successors(st, yield)
			}
			dSucc += time.Since(t)
			m1 := readMem()
			allocs += m1.allocs - m0.allocs
			r.SuccBytes += m1.bytes - m0.bytes

			// Fingerprint.
			hashes = hashes[:0]
			t = time.Now()
			for _, ns := range succ {
				hashes = append(hashes, m.FingerprintHash(ns))
			}
			dFp += time.Since(t)

			// Insert.
			fresh, freshHash = fresh[:0], freshHash[:0]
			for i, h := range hashes {
				if _, ok := seen[h]; ok {
					continue
				}
				seen[h] = struct{}{}
				fresh = append(fresh, succ[i])
				freshHash = append(freshHash, h)
			}

			// Check.
			t = time.Now()
			fails := r.check(m, checks, fresh)
			dInv += time.Since(t)

			transitions += len(succ)
			states += len(fresh)
			for i, name := range fails {
				if name == "" {
					next = append(next, fresh[i])
					continue
				}
				if r.Violation == "" || freshHash[i] < violHash {
					r.Violation, violHash = name, freshHash[i]
				}
			}
		}
		r.Expanded += len(layer)
		r.Transitions += transitions
		r.States += states
		r.SuccNs += int64(dSucc)
		r.FpNs += int64(dFp)
		r.InvNs += int64(dInv)
		r.SuccAllocs += allocs
		tr.end(sp, map[string]int64{
			"expanded": int64(len(layer)), "successors": int64(transitions), "new": int64(states),
			"successors_ns": int64(dSucc), "fingerprint_ns": int64(dFp), "invariant_ns": int64(dInv),
			"allocs": int64(allocs),
		})
		if r.Violation != "" {
			r.Stopped, r.TraceLen = explore.StopViolation, depth+1
			break
		}
		layer = next
	}
	return r
}

// check evaluates the battery on every state, check by check, and
// returns for each state the first failing invariant in battery order
// ("" when all hold) — the one explore would report for that state.
func (r *replayResult) check(m *gcmodel.Model, checks []invariant.Check, sts []state) []string {
	views := make([]*invariant.View, len(sts))
	for i, st := range sts {
		views[i] = invariant.NewView(gcmodel.Global{Model: m, State: st})
	}
	fails := make([]string, len(sts))
	for c, chk := range checks {
		t := time.Now()
		for i, v := range views {
			if err := chk.Pred(v); err != nil && fails[i] == "" {
				fails[i] = chk.Name
			}
		}
		r.CheckNs[c] += int64(time.Since(t))
	}
	return fails
}
