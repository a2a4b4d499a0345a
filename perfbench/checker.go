package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
	"repro/internal/liveness"
)

// The two checker inputs. Both are exhaustive: a MaxStates cap would make
// the counts depend on the worker count.
var (
	tinyTSOSpec        = core.JobSpec{Preset: "tiny"}
	tinySCLivenessSpec = core.JobSpec{
		Preset:    "tiny",
		Ablations: core.Ablations{SCMemory: true},
		Options:   core.JobOptions{Liveness: true},
	}
)

// checkerSetupReps is how many times set-up is repeated per run; the
// median is reported, since one model build takes well under a
// millisecond and a single sample is mostly noise.
const checkerSetupReps = 51

// runChecker measures core.RunJob on spec: whole verdicts, one after the
// other, until the next one would end past the run's time budget (at
// least one verdict per run).
func runChecker(spec core.JobSpec) func(*env) (*outcome, error) {
	return func(e *env) (*outcome, error) {
		if e.tr != nil {
			return runCheckerTraced(e, spec)
		}
		o := newOutcome()
		setup, err := timeSetup(checkerSetupReps, func() error {
			_, err := buildModel(spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		runtime.GC() // collect the set-up models now, not during the measurement
		var verdicts []time.Duration
		start := time.Now()
		for {
			t := time.Now()
			res, _, err := core.RunJob(spec, core.JobRun{})
			d := time.Since(t)
			verdicts = append(verdicts, d)
			o.attempted++
			if err != nil {
				o.fail(fmt.Errorf("%s: %w", specName(spec), err))
			} else if err := e.golden.check(spec, answerFromResult(res)); err != nil {
				o.fail(err)
			}
			if time.Since(start)+d > e.seconds {
				break
			}
		}
		vs := secs(verdicts)
		o.setE2E(median(secs(setup)), median(ms(verdicts)), percentile(ms(verdicts), 100), float64(len(vs))/sum(vs))
		o.named("verdict_s", median(vs), "s")
		o.unitCost = median(vs)
		return o, nil
	}
}

func buildModel(spec core.JobSpec) (*gcmodel.Model, error) {
	cfg, _, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", specName(spec), err)
	}
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", specName(spec), err)
	}
	m.Initial()
	return m, nil
}

// runCheckerTraced is the traced run of a checker workload: the replay
// BFS (per-layer costs and the second oracle), a 1-worker explore.Run
// (the engine's own cost once the replayed work is subtracted), and the
// verdict itself at the default worker count with Progress reports
// recorded as spans.
func runCheckerTraced(e *env, spec core.JobSpec) (*outcome, error) {
	o := newOutcome()
	mem0 := readMem()
	var p probe
	if err := p.add(e, spec, true); err != nil {
		return nil, err
	}
	mem1 := readMem()
	o.attempted = 1
	for _, f := range p.failures {
		o.fail(f)
	}
	p.layerMetrics(o)
	o.layer["process.gc_cpu_share"] = gcShare(mem0, mem1)
	o.unitCost = p.verdictWall.Seconds()
	return o, nil
}

// probe accumulates the checker-layer measurements of one or more inputs
// (the service workload probes every spec it submitted).
type probe struct {
	// From the replay BFS. Its counts equal explore.Run's (checked).
	expanded, states, transitions, depth int
	succNs, fpNs, invNs                  int64
	succAllocs, succBytes                uint64
	checkNames                           []string
	checkNs                              []int64

	w1, wn       time.Duration // 1-worker and default-worker explore.Run wall
	visitedBytes int64

	liveWall, verdictWall time.Duration
	liveStates, liveEdges int

	failures []error
}

// add measures one input. With verdict set it also runs the liveness
// pass the spec asks for and checks the whole answer against the golden
// table; otherwise (the service already reported the verdict) it checks
// the replayed counts and violated invariant.
func (p *probe) add(e *env, spec core.JobSpec, verdict bool) error {
	name := specName(spec)
	cfg, vopt, err := spec.Build()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	checks := invariant.All()
	if vopt.HeadlineOnly {
		checks = invariant.Safety()
	}
	run := e.tr.begin(e.root, "run "+name)
	defer e.tr.end(run, nil)

	sp := e.tr.begin(run, "replay")
	rr := replay(m, checks, vopt.MaxDepth, e.tr, sp)
	e.tr.end(sp, map[string]int64{"states": int64(rr.States), "transitions": int64(rr.Transitions)})

	eopt := explore.Options{MaxDepth: vopt.MaxDepth, Trace: true, HashOnly: true, Workers: 1}
	sp = e.tr.begin(run, "explore 1 worker")
	r1 := explore.Run(m, checks, eopt)
	e.tr.end(sp, map[string]int64{"states": int64(r1.States)})

	vsp := e.tr.begin(run, "verdict")
	ssp := e.tr.begin(vsp, "safety")
	eopt.Workers = 0
	eopt.Progress = func(pr explore.Progress) {
		e.tr.end(e.tr.begin(ssp, "progress"), map[string]int64{
			"states": int64(pr.States), "depth": int64(pr.Depth), "frontier": int64(pr.Frontier),
		})
	}
	rn := explore.Run(m, checks, eopt)
	e.tr.end(ssp, map[string]int64{"states": int64(rn.States), "transitions": int64(rn.Transitions)})
	res := core.VerifyResult{Result: rn, Model: m}
	var live time.Duration
	if verdict && vopt.Liveness && rn.Violation == nil {
		lsp := e.tr.begin(vsp, "liveness")
		t := time.Now()
		lr, err := liveness.Check(m, liveness.Options{MaxStates: vopt.MaxStates, MaxDepth: vopt.MaxDepth})
		live = time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: liveness: %w", name, err)
		}
		e.tr.end(lsp, map[string]int64{"states": int64(lr.States), "edges": int64(lr.Transitions)})
		res.Liveness = &lr
		p.liveStates += lr.States
		p.liveEdges += lr.Transitions
	}
	e.tr.end(vsp, nil)

	// The replay, both explore runs and the golden table must agree.
	for _, c := range []struct {
		who string
		r   explore.Result
	}{{"explore.Run 1 worker", r1}, {"explore.Run", rn}} {
		if c.r.States != rr.States || c.r.Transitions != rr.Transitions || c.r.Depth != rr.Depth {
			p.failures = append(p.failures, fmt.Errorf("%s: replay BFS found %d states, %d transitions, depth %d; %s found %d, %d, %d",
				name, rr.States, rr.Transitions, rr.Depth, c.who, c.r.States, c.r.Transitions, c.r.Depth))
		}
	}
	if verdict {
		if err := e.golden.check(spec, answerFromResult(res)); err != nil {
			p.failures = append(p.failures, err)
		}
	} else {
		got := answer{States: rr.States, Transitions: rr.Transitions, Depth: rr.Depth, Invariant: rr.Violation, TraceLen: rr.TraceLen}
		want := e.golden[specKey(spec)].Answer
		want.Verdict, want.Lasso = "", ""
		if got != want {
			p.failures = append(p.failures, fmt.Errorf("%s: replay BFS got %+v, golden %+v", name, got, want))
		}
	}

	p.expanded += rr.Expanded
	p.states += rr.States
	p.transitions += rr.Transitions
	p.depth = max(p.depth, rr.Depth)
	p.succNs += rr.SuccNs
	p.fpNs += rr.FpNs
	p.invNs += rr.InvNs
	p.succAllocs += rr.SuccAllocs
	p.succBytes += rr.SuccBytes
	if p.checkNs == nil {
		p.checkNs = make([]int64, len(checks))
		for _, c := range checks {
			p.checkNames = append(p.checkNames, c.Name)
		}
	}
	for i := range checks {
		p.checkNs[i] += rr.CheckNs[i]
	}
	p.w1 += r1.Elapsed
	p.wn += rn.Elapsed
	p.visitedBytes += rn.VisitedBytes
	p.liveWall += live
	p.verdictWall += rn.Elapsed + live
	return nil
}

// layerMetrics writes the gcmodel, invariant, explore and liveness
// per-layer metrics. States, transitions and depth are summed (depth:
// the deepest) over the probed inputs.
func (p *probe) layerMetrics(o *outcome) {
	L := o.layer
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	L["gcmodel.successors_ns_per_state"] = per(float64(p.succNs), p.expanded)
	L["gcmodel.allocs_per_state"] = per(float64(p.succAllocs), p.expanded)
	L["gcmodel.bytes_per_state"] = per(float64(p.succBytes), p.expanded)
	L["gcmodel.fingerprint_ns_per_succ"] = per(float64(p.fpNs), p.transitions)
	L["invariant.ns_per_state"] = per(float64(p.invNs), p.states)
	for i, n := range p.checkNames {
		L["invariant."+n+"_ns_per_state"] = per(float64(p.checkNs[i]), p.states)
	}
	L["explore.states"] = float64(p.states)
	L["explore.transitions"] = float64(p.transitions)
	L["explore.depth"] = float64(p.depth)
	L["explore.states_per_s"] = float64(p.states) / p.wn.Seconds()
	L["explore.self_ns_per_state"] = per(float64(p.w1)-float64(p.succNs+p.fpNs+p.invNs), p.states)
	L["explore.parallel_speedup"] = p.w1.Seconds() / p.wn.Seconds()
	L["explore.visited_bytes_per_state"] = per(float64(p.visitedBytes), p.states)
	if p.liveStates > 0 {
		L["liveness.check_s"] = p.liveWall.Seconds()
		L["liveness.share"] = p.liveWall.Seconds() / p.verdictWall.Seconds()
		L["liveness.graph_states"] = float64(p.liveStates)
		L["liveness.graph_edges"] = float64(p.liveEdges)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
