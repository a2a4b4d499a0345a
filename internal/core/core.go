// Package core is the library façade for the reproduction of "Relaxing
// Safely: Verified On-the-fly Garbage Collection for x86-TSO" (Gammie,
// Hosking, Engelhardt; PLDI 2015). It ties together:
//
//   - the formal model of the collector over CIMP and x86-TSO
//     (packages cimp, tso, heap, gcmodel),
//   - the safety invariants of the paper's proof (package invariant),
//   - the explicit-state model checker and randomized simulator that
//     re-establish the headline theorem on bounded configurations
//     (packages explore, sched),
//   - and the executable collector kernel with real goroutine mutators
//     (package gcrt).
//
// The headline property, checked at every reachable state:
//
//	GC ∥ M1 ∥ … ∥ Mn ∥ Sys ⊨ □(∀r. reachable r → valid_ref r)
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/gcrt"
	"repro/internal/heap"
	"repro/internal/invariant"
	"repro/internal/liveness"
	"repro/internal/sched"
	"repro/internal/storage"
)

// ModelConfig re-exports the model configuration.
type ModelConfig = gcmodel.Config

// Progress re-exports the checker's progress report.
type Progress = explore.Progress

// VerifyOptions bounds a verification run.
type VerifyOptions struct {
	// MaxStates caps the exploration (0 = unbounded).
	MaxStates int
	// MaxDepth caps the BFS depth (0 = unbounded).
	MaxDepth int
	// Trace records counterexample traces.
	Trace bool
	// HeadlineOnly checks just valid_refs_inv instead of the full
	// battery.
	HeadlineOnly bool
	// Progress, if non-nil, receives periodic updates.
	Progress func(Progress)
	// ProgressEvery is the number of newly visited states between
	// Progress reports (0 = checker default, 8192). Verdict-neutral.
	ProgressEvery int
	// Workers is the number of checker worker goroutines per BFS layer
	// (0 = GOMAXPROCS). Verdicts do not depend on the worker count.
	Workers int
	// Shards is the number of lock-striped visited-set shards (0 =
	// checker default).
	Shards int
	// Audit retains the full canonical fingerprint of every visited
	// state alongside its 64-bit hash and counts hash collisions
	// (VerifyResult.HashCollisions). It costs string-fingerprint memory
	// and exists to validate the default compact-hash mode.
	Audit bool
	// Reduce enables the TSO-aware partial-order reduction (skip
	// commuting interleavings of safe buffer-local steps); see
	// explore.Options.Reduce. Verdicts are preserved; the BFS
	// shortest-counterexample guarantee is not.
	Reduce bool
	// Symmetry collapses states that differ only by a
	// standing-class-preserving permutation of the mutators; see
	// explore.Options.Symmetry. No-op for single-mutator models.
	Symmetry bool
	// Liveness additionally runs the fair-cycle liveness checker
	// (package liveness) after the safety exploration: every progress
	// property is checked for weakly fair violating cycles, with lasso
	// counterexamples in VerifyResult.Liveness. The liveness pass is a
	// second explore run over the full, unreduced relation, regardless
	// of Reduce/Symmetry (see DESIGN.md "Liveness architecture"), with
	// this run's Workers, Progress, ProgressEvery, caps and Context. It
	// is skipped when the safety pass already found a violation.
	Liveness bool
	// LivenessProps selects a subset of the progress properties by name
	// (nil = all; see liveness.All).
	LivenessProps []string
	// ValidateEffects cross-checks the static analysis layer against the
	// exploration (see package analysis): every taken transition is
	// checked against the declared effect footprint, and the derived POR
	// safe classification is diffed against the handwritten one at every
	// visited state. Any disagreement is reported as a violation
	// ("event-check" / "state-check"). VerifyResult.Effects carries the
	// validation counters.
	ValidateEffects bool
	// Context, if non-nil, requests graceful interruption: the checker
	// observes cancellation at BFS layer boundaries, writes a final
	// checkpoint when one is configured, and reports the run incomplete
	// (Stopped == explore.StopInterrupted). See explore.Options.Context.
	Context context.Context
	// CheckpointPath enables periodic snapshots of the search state to
	// this file (atomic temp-file-and-rename writes); empty disables.
	CheckpointPath string
	// CheckpointEvery is the number of BFS layers between snapshots
	// (0 = checker default).
	CheckpointEvery int
	// Resume, if non-empty, restores the search from the checkpoint file
	// at this path instead of starting at the initial state. The
	// checkpoint's options must match this run's (Verify returns an
	// error otherwise), and the resumed run reaches the same counts and
	// verdict as an uninterrupted one.
	Resume string
	// MemBudget, if positive, is a soft heap budget in bytes: as the
	// checker's live heap approaches it, the run degrades in steps
	// (emergency checkpoint, then dropping audit fingerprints, then a
	// clean incomplete stop) instead of dying to the OOM killer. See
	// explore.Options.MemBudget.
	MemBudget int64
	// SpillDir, if non-empty, arms the disk-spill degradation rung: when
	// the memory ladder would otherwise drop audit data or stop the run,
	// cold visited-set shards and frontier layers spill to CRC-framed
	// files under this directory and the run completes exhaustively
	// instead. Representation-only — excluded from the options
	// fingerprint. See explore.Options.SpillDir.
	SpillDir string
	// FS, when non-nil, routes all of the run's disk I/O (checkpoints
	// and spill files) through this filesystem; nil means the real one.
	// A fault-injecting FS (storage.FaultFS) plugs in here.
	FS storage.FS
}

// VerifyResult reports a verification run.
type VerifyResult struct {
	// Result is the raw exploration outcome.
	explore.Result
	// Model is the built model (for rendering traces).
	Model *gcmodel.Model
	// Liveness is the fair-cycle checker's outcome, nil unless
	// VerifyOptions.Liveness was set (and the safety pass was clean).
	Liveness *liveness.Result
	// Effects is the effect validator used by the run, nil unless
	// VerifyOptions.ValidateEffects was set. Its Stats method reports
	// how many transitions and states were validated.
	Effects *analysis.Validator
}

// Holds reports whether the checked properties are established on the
// bounded configuration: every invariant held on every state of a
// COMPLETE exploration (and, if the liveness pass ran, every progress
// property held on a complete graph). An incomplete run — capped,
// interrupted, memory-budgeted, or poisoned by a panic — never
// establishes the property; use NoViolation for the weaker "nothing
// failed in what was explored".
func (r VerifyResult) Holds() bool {
	return r.Violation == nil && r.Complete &&
		(r.Liveness == nil || (r.Liveness.Holds() && r.Liveness.Complete))
}

// NoViolation reports that no invariant or progress violation was found
// in whatever portion of the state space was explored. For incomplete
// runs this is evidence, not proof.
func (r VerifyResult) NoViolation() bool {
	return r.Violation == nil && (r.Liveness == nil || r.Liveness.Holds())
}

// Status names the verdict category: "verified" (complete and clean),
// "no-violation" (clean but incomplete), "violation", or
// "liveness-violation".
func (r VerifyResult) Status() string {
	switch {
	case r.Violation != nil:
		return "violation"
	case r.Liveness != nil && !r.Liveness.Holds():
		return "liveness-violation"
	case r.Holds():
		return "verified"
	default:
		return "no-violation"
	}
}

// RenderViolation formats the counterexample, or "" if none.
func (r VerifyResult) RenderViolation() string {
	if r.Violation == nil {
		return ""
	}
	return r.Violation.Render(r.Model)
}

// battery selects the invariant set a run checks.
func battery(opt VerifyOptions) []invariant.Check {
	if opt.HeadlineOnly {
		return invariant.Safety()
	}
	return invariant.All()
}

// exploreOptions maps the public VerifyOptions onto the checker's
// options. Verify and Fingerprint share it so the fingerprint computed
// without running is exactly the one the checkpoint layer embeds and
// validates on resume.
func exploreOptions(opt VerifyOptions) explore.Options {
	return explore.Options{
		MaxStates:     opt.MaxStates,
		MaxDepth:      opt.MaxDepth,
		Trace:         opt.Trace,
		Progress:      opt.Progress,
		ProgressEvery: opt.ProgressEvery,
		Workers:       opt.Workers,
		Shards:        opt.Shards,
		HashOnly:      !opt.Audit,
		Reduce:        opt.Reduce,
		Symmetry:      opt.Symmetry,
		Context:       opt.Context,
		Checkpoint: explore.CheckpointOptions{
			Path:        opt.CheckpointPath,
			EveryLayers: opt.CheckpointEvery,
		},
		MemBudget: opt.MemBudget,
		SpillDir:  opt.SpillDir,
		FS:        opt.FS,
	}
}

// Fingerprint computes the verdict-relevant options fingerprint of a
// configuration + options pair without exploring anything: the exact
// fingerprint the checkpoint layer validates on resume (model config,
// invariant battery, every option that changes which states are visited
// or what is checked; worker count excluded), extended with the
// liveness-pass selections the safety checker does not see. The verdict
// cache (package server) keys completed verdicts by it, so a repeated
// submission is recognized before any state is expanded.
func Fingerprint(cfg ModelConfig, opt VerifyOptions) (uint64, string, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return 0, "", fmt.Errorf("core: %w", err)
	}
	eopt := exploreOptions(opt)
	if opt.ValidateEffects {
		eopt.Hook = new(analysis.Validator).Hook() // only its non-nil-ness enters the summary
	}
	_, summary := explore.OptionsFingerprint(m, battery(opt), eopt)
	summary = fmt.Sprintf("%s liveness=%v liveProps=%v", summary, opt.Liveness, opt.LivenessProps)
	return gcmodel.Hash64([]byte(summary)), summary, nil
}

// Verify model-checks a configuration against the paper's invariants.
func Verify(cfg ModelConfig, opt VerifyOptions) (VerifyResult, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("core: %w", err)
	}
	checks := battery(opt)
	eopt := exploreOptions(opt)
	if opt.Resume != "" {
		snap, err := checkpoint.LoadFS(storage.OrOS(opt.FS), opt.Resume)
		if err != nil {
			return VerifyResult{}, fmt.Errorf("core: %w", err)
		}
		eopt.Resume = snap
	}
	var val *analysis.Validator
	if opt.ValidateEffects {
		val, err = analysis.NewValidator(m)
		if err != nil {
			return VerifyResult{}, fmt.Errorf("core: %w", err)
		}
		eopt.Hook = val.Hook()
	}
	res := explore.Run(m, checks, eopt)
	vr := VerifyResult{Result: res, Model: m, Effects: val}
	if res.Stopped == explore.StopResume {
		return vr, fmt.Errorf("core: %w", res.Err)
	}
	// The liveness pass runs only when the safety pass ended on its own
	// terms: an interruption, memory stop, or worker panic means the user
	// (or the machine) wants the run over, not a second exploration.
	switch res.Stopped {
	case explore.StopInterrupted, explore.StopMemBudget, explore.StopPanic, explore.StopSpill:
		return vr, nil
	}
	if opt.Liveness && res.Violation == nil {
		var props []liveness.Property
		if opt.LivenessProps != nil {
			props, err = liveness.ByName(m, opt.LivenessProps)
			if err != nil {
				return vr, fmt.Errorf("core: %w", err)
			}
		}
		lres, err := liveness.Check(m, liveness.Options{
			MaxStates:     opt.MaxStates,
			MaxDepth:      opt.MaxDepth,
			Progress:      opt.Progress,
			ProgressEvery: opt.ProgressEvery,
			Workers:       opt.Workers,
			Properties:    props,
			Context:       opt.Context,
		})
		if err != nil {
			return vr, fmt.Errorf("core: %w", err)
		}
		vr.Liveness = &lres
	}
	return vr, nil
}

// SimulateOptions configures a randomized deep run.
type SimulateOptions struct {
	Seed       int64
	Steps      int
	CheckEvery int
	// Context, when non-nil, interrupts the walk between steps
	// (Result.Interrupted).
	Context context.Context
}

// Simulate performs a seeded random walk with invariant monitors — depth
// and scale where Verify gives exhaustiveness.
func Simulate(cfg ModelConfig, opt SimulateOptions) (sched.Result, error) {
	m, err := gcmodel.Build(cfg)
	if err != nil {
		return sched.Result{}, fmt.Errorf("core: %w", err)
	}
	return sched.Walk(m, invariant.All(), sched.Options{
		Seed:       opt.Seed,
		Steps:      opt.Steps,
		CheckEvery: opt.CheckEvery,
		Context:    opt.Context,
	}), nil
}

// RuntimeOptions re-exports the collector kernel options.
type RuntimeOptions = gcrt.Options

// NewRuntime creates the executable collector kernel.
func NewRuntime(opt RuntimeOptions) *gcrt.Runtime { return gcrt.New(opt) }

// TinyConfig is the smallest interesting verification instance: one
// mutator over two objects (h → x, only h rooted), with stores, loads
// and discards, a store-buffer bound of 2, and a per-cycle budget of two
// heap operations.
func TinyConfig() ModelConfig {
	return ModelConfig{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    2,
		OpBudget:  2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0)},
		AllowNilStore: true,
		DisableAlloc:  true,
	}
}

// AllocConfig adds allocation over a three-reference universe.
func AllocConfig() ModelConfig {
	cfg := TinyConfig()
	cfg.NRefs = 3
	cfg.DisableAlloc = false
	return cfg
}

// TwoMutatorConfig exercises ragged handshakes: two mutators share the
// heap; budgets and buffers are kept minimal so exhaustive runs stay
// tractable.
func TwoMutatorConfig() ModelConfig {
	return ModelConfig{
		NMutators: 2,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:     []heap.RefSet{heap.SetOf(0), heap.SetOf(1)},
		AllowNilStore: true,
		DisableAlloc:  true,
		DisableLoad:   true,
	}
}

// SymmetricConfig makes TwoMutatorConfig's mutators fully
// interchangeable — identical programs and identical initial roots — so
// that mutator-symmetry canonicalization (VerifyOptions.Symmetry) can
// fold permuted states. Discards and fences are disabled to keep the
// exhaustive runs tractable; the state space still folds by nearly 2x
// under symmetry (EXPERIMENTS.md E17).
func SymmetricConfig() ModelConfig {
	cfg := TwoMutatorConfig()
	cfg.InitRoots = []heap.RefSet{heap.SetOf(0), heap.SetOf(0)}
	cfg.DisableDiscard = true
	cfg.DisableMFence = true
	return cfg
}

// TwoMutatorLoadsConfig is TwoMutatorConfig with heap loads enabled:
// the workload needed by the §2 insertion-barrier hiding scenario (a
// mutator loads a white reference and stores it behind the wavefront).
func TwoMutatorLoadsConfig() ModelConfig {
	cfg := TwoMutatorConfig()
	cfg.DisableLoad = false
	return cfg
}

// ChainConfig roots a two-link chain h → x → y, the Figure 1 shape: grey
// protection along white chains is what the deletion barrier preserves.
func ChainConfig() ModelConfig {
	return ModelConfig{
		NMutators: 1,
		NRefs:     3,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  2,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {2},
			2: {heap.NilRef},
		},
		InitRoots:      []heap.RefSet{heap.SetOf(0)},
		AllowNilStore:  true,
		DisableAlloc:   true,
		DisableDiscard: true,
	}
}
