// Package liveness is the progress half of the checker: a fair-cycle
// detector over the reachable state graph of the GC model. Where
// package explore re-establishes the paper's safety theorem
// (□(reachable r → valid_ref r)) by visiting every state, this package
// checks the progress obligations the paper states informally but
// leaves unproven (§6): every initiated handshake is eventually
// acknowledged by all mutators, the collector infinitely often reaches
// the sweep phase, and every buffered TSO store is eventually flushed
// to memory.
//
// # Properties as acceptance conditions
//
// Each Property carries a predicate Bad over global states meaning "the
// progress obligation is outstanding here": a handshake-pending bit is
// set, a store buffer is non-empty, the collector is not at sweep. A
// property is violated exactly when the model has an infinite fair
// execution on which Bad holds forever — in a finite graph, a reachable
// cycle every state of which satisfies Bad. Both shapes of the paper's
// obligations compile to this persistence form: a response property
// □(pending → ◇acked) fails on a cycle that stays pending, and a
// recurrence property □◇sweep fails on a cycle that avoids sweep.
//
// # Weak fairness
//
// Not every cycle is a real counterexample: the interleaving semantics
// contains scheduler-starvation loops (a mutator polling an empty
// mailbox forever while the runnable collector never gets a turn) and
// buffer-procrastination loops (a non-empty store buffer whose commit
// transition is enabled at every state but never scheduled). These are
// artifacts of the demonic scheduler, not bugs in the collector, so the
// detector only reports cycles that are weakly fair with respect to a
// set of fairness entities:
//
//   - one entity per process (collector and each mutator): a process
//     with an enabled transition at every state of the cycle must take
//     a step somewhere on the cycle;
//   - one entity per store buffer: if the buffer's oldest write is
//     committable (buffer non-empty, TSO lock not held by another
//     process) at every state of the cycle, a commit of that buffer
//     must occur on the cycle — hardware drains store buffers
//     spontaneously;
//   - one entity per mutator for handshake response: if mutator m has a
//     pending handshake and an enabled handshake-advancing step at
//     every state of the cycle, it must advance the handshake on the
//     cycle. This encodes the paper's §3.1 assumption that mutators
//     poll regularly; without it, a mutator spinning on MFENCE forever
//     would be a (weakly fair per process) way to starve every
//     handshake, drowning real violations in scheduler noise.
//
// A cycle is reported only if, for every entity, the entity either
// takes a step on the cycle or is disabled at some state of the cycle.
//
// # Algorithm
//
// Check materializes the reachable graph once (nodes are 64-bit
// fingerprint hashes; edges carry the event index into the unreduced
// successor enumeration plus a bitmask of the fairness entities they
// serve) from the transitions explore.Run reports through its hook
// while searching the full relation with no checks; node ids are
// assigned at each layer barrier in sequential BFS discovery order, so
// the graph does not depend on the worker count. It then runs, per
// property, Tarjan's SCC algorithm on the subgraph induced by the Bad
// states. A strongly connected component admits a weakly fair cycle
// iff every entity enabled at all of its states is taken on some
// internal edge; from the first such component a concrete lasso (stem
// + cycle) is stitched together from shortest paths and replayed
// through the transition relation, so a liveness counterexample is a
// step-by-step run exactly like a safety one.
//
// The detector always runs on the full, unreduced transition relation:
// the partial-order reduction of package explore preserves reachability
// verdicts but not cycles or enabledness (see DESIGN.md "Liveness
// architecture").
package liveness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cimp"
	"repro/internal/explore"
	"repro/internal/gcmodel"
)

// Property is one progress obligation, expressed as a persistence
// acceptance condition: the property is violated iff some weakly fair
// cycle satisfies Bad at every state.
type Property struct {
	// Name identifies the property in verdicts and on the gcmc command
	// line (e.g. "hs-ack-m0").
	Name string
	// Desc is the one-line human reading of the obligation.
	Desc string
	// Bad reports whether the obligation is outstanding at this state.
	Bad func(g gcmodel.Global) bool
}

// All returns the progress properties of a model instance, derived from
// the paper's informal liveness claims:
//
//   - hs-ack-m<i>: every handshake signaled to mutator i is eventually
//     acknowledged (the pending bit eventually clears);
//   - gc-sweep: the collector infinitely often reaches the sweep phase,
//     so garbage is reclaimed infinitely often;
//   - buf-drain-gc, buf-drain-m<i>: every write buffered by the process
//     is eventually committed to shared memory.
func All(m *gcmodel.Model) []Property {
	n := m.Cfg.NMutators
	props := make([]Property, 0, 2*n+2)
	for i := 0; i < n; i++ {
		i := i
		props = append(props, Property{
			Name: fmt.Sprintf("hs-ack-m%d", i),
			Desc: fmt.Sprintf("every handshake signaled to mutator %d is eventually acknowledged", i),
			Bad:  func(g gcmodel.Global) bool { return g.Sys().Pending[i] },
		})
	}
	props = append(props, Property{
		Name: "gc-sweep",
		Desc: "the collector infinitely often completes a mark phase and reaches sweep",
		Bad:  func(g gcmodel.Global) bool { return g.GC().Phase != gcmodel.PhSweep },
	})
	props = append(props, Property{
		Name: "buf-drain-gc",
		Desc: "every store buffered by the collector is eventually flushed",
		Bad:  func(g gcmodel.Global) bool { return len(g.Buf(gcmodel.GCPID)) > 0 },
	})
	for i := 0; i < n; i++ {
		i := i
		props = append(props, Property{
			Name: fmt.Sprintf("buf-drain-m%d", i),
			Desc: fmt.Sprintf("every store buffered by mutator %d is eventually flushed", i),
			Bad:  func(g gcmodel.Global) bool { return len(g.Buf(gcmodel.MutPID(i))) > 0 },
		})
	}
	return props
}

// ByName resolves a subset of All(m) by property name.
func ByName(m *gcmodel.Model, names []string) ([]Property, error) {
	all := All(m)
	byName := make(map[string]Property, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var props []Property
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("liveness: unknown property %q (have %v)", n, propertyNames(all))
		}
		props = append(props, p)
	}
	return props, nil
}

func propertyNames(props []Property) []string {
	ns := make([]string, len(props))
	for i, p := range props {
		ns[i] = p.Name
	}
	return ns
}

// Options bounds and instruments a liveness check.
type Options struct {
	// MaxStates caps the number of distinct states in the graph (0 = no
	// cap). A capped graph under-approximates the cycle structure:
	// violations found are real, but a clean verdict is only conclusive
	// when Result.Complete.
	MaxStates int
	// MaxDepth caps the BFS depth (0 = no cap); states at MaxDepth are
	// kept as nodes but not expanded.
	MaxDepth int
	// Progress, if non-nil, receives a report roughly every
	// ProgressEvery newly discovered states.
	Progress func(explore.Progress)
	// ProgressEvery is the number of new states between Progress calls
	// (0 = 8192).
	ProgressEvery int
	// Workers is the number of graph-build workers per BFS layer (0 =
	// GOMAXPROCS). Only a MaxStates-capped graph depends on it.
	Workers int
	// Properties selects the progress properties to check (nil =
	// All(m)).
	Properties []Property
	// Context, if non-nil, requests graceful interruption of the graph
	// materialization: on cancellation the search stops at the next
	// layer barrier, the graph is closed consistently (unexpanded nodes
	// keep no out-edges, so no cycle is fabricated), and the check runs
	// on the partial graph. Violations found are real; clean verdicts on
	// an interrupted run are inconclusive (Result.Complete false,
	// Result.Stopped "interrupted").
	Context context.Context
}

// PropertyResult is the verdict for one property.
type PropertyResult struct {
	// Name and Desc identify the property.
	Name string
	Desc string
	// Holds reports that no weakly fair violating cycle exists in the
	// explored graph (conclusive only when Result.Complete).
	Holds bool
	// Counterexample is the violating lasso, nil when Holds.
	Counterexample *Lasso
}

// Result summarizes a liveness check.
type Result struct {
	// States, Transitions and Depth describe the materialized graph;
	// on a complete run they match the safety checker's exploration of
	// the same configuration exactly (same relation, same counting).
	States      int
	Transitions int
	Depth       int
	// Complete reports that the full reachable graph was materialized
	// within the caps, making clean verdicts conclusive.
	Complete bool
	// Stopped says why materialization ended early (explore.StopNone
	// for a complete graph): max-states, max-depth, or interrupted.
	Stopped explore.StopReason
	// GraphBytes is the payload memory retained by the state graph
	// (node and edge arrays; Go map overhead excluded).
	GraphBytes int64
	// Properties holds one verdict per checked property, in the order
	// they were given.
	Properties []PropertyResult
	// Elapsed is the wall-clock duration of the whole check.
	Elapsed time.Duration
}

// Holds reports whether every checked property held.
func (r Result) Holds() bool {
	for _, p := range r.Properties {
		if !p.Holds {
			return false
		}
	}
	return true
}

// Violations returns the properties that failed.
func (r Result) Violations() []PropertyResult {
	var vs []PropertyResult
	for _, p := range r.Properties {
		if !p.Holds {
			vs = append(vs, p)
		}
	}
	return vs
}

// Check materializes the reachable state graph of m (always over the
// full, unreduced relation) and searches it, per property, for a weakly
// fair cycle on which the property's obligation is outstanding at every
// state. Counterexamples are returned as replayable lassos.
func Check(m *gcmodel.Model, opt Options) (Result, error) {
	start := time.Now()
	props := opt.Properties
	if props == nil {
		props = All(m)
	}
	if len(props) > maxProperties {
		return Result{}, fmt.Errorf("liveness: %d properties exceed the %d-property limit", len(props), maxProperties)
	}
	ents := entities{nmut: m.Cfg.NMutators}
	if ents.count() > 64 {
		return Result{}, fmt.Errorf("liveness: %d mutators exceed the fairness-entity limit", m.Cfg.NMutators)
	}

	g, run := buildGraph(m, props, ents, opt)
	if run.Stopped == explore.StopPanic {
		return Result{}, fmt.Errorf("liveness: %w", run.Err)
	}
	res := Result{
		States:      len(g.hash),
		Transitions: run.Transitions,
		Depth:       int(g.depth[len(g.depth)-1]),
		Complete:    run.Complete,
		Stopped:     run.Stopped,
		GraphBytes:  g.bytes(),
	}
	for i, p := range props {
		pr := PropertyResult{Name: p.Name, Desc: p.Desc, Holds: true}
		if walk := g.fairCycle(i); walk != nil {
			lasso, err := g.lasso(walk)
			if err != nil {
				return res, fmt.Errorf("liveness: %s: %w", p.Name, err)
			}
			pr.Holds = false
			pr.Counterexample = lasso
		}
		res.Properties = append(res.Properties, pr)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// maxProperties bounds the per-node property bitmask.
const maxProperties = 32

// entities lays out the weak-fairness entities of one model instance in
// a 64-bit mask: process entities for the collector and each mutator
// (bit = PID), one buffer-drain entity per buffered process, and one
// handshake-response entity per mutator. The system process needs no
// entity of its own — it moves only as the responder of a rendezvous
// (attributed to the requester) or through the dequeue transition
// (attributed to the drained buffer's entity).
type entities struct {
	nmut int
}

// count is the number of entities: (1+nmut) processes, (1+nmut)
// buffers, nmut handshake responders.
func (e entities) count() int { return 3*e.nmut + 2 }

// proc is the process entity of the collector (PID 0) or a mutator.
func (e entities) proc(p cimp.PID) uint64 { return 1 << uint(p) }

// drain is the buffer-drain entity of PID p's store buffer.
func (e entities) drain(p cimp.PID) uint64 { return 1 << uint(e.nmut+1+int(p)) }

// hs is the handshake-response entity of mutator ordinal m.
func (e entities) hs(m int) uint64 { return 1 << uint(2*(e.nmut+1)+m) }

// name renders entity bit index b for diagnostics.
func (e entities) name(b int) string {
	switch {
	case b == 0:
		return "proc(gc)"
	case b <= e.nmut:
		return fmt.Sprintf("proc(m%d)", b-1)
	case b == e.nmut+1:
		return "drain(gc)"
	case b <= 2*e.nmut+1:
		return fmt.Sprintf("drain(m%d)", b-e.nmut-2)
	default:
		return fmt.Sprintf("hs(m%d)", b-2*e.nmut-2)
	}
}
