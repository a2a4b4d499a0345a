// Package explore is an explicit-state model checker for the GC model: a
// parallel breadth-first search over the CIMP system semantics with
// compact hashed state fingerprints, invariant checking at every
// reachable state, and counterexample trace reconstruction. It plays the
// role of the paper's Isabelle/HOL induction over the reachable states
// of the _⇒_ relation, restricted to bounded configurations.
//
// # Architecture
//
// The search is layer-synchronous: all states at BFS depth d are
// expanded by Options.Workers goroutines before any state at depth d+1
// is expanded. The layer barrier preserves the sequential checker's
// shortest-counterexample guarantee and its MaxDepth accounting, and
// makes the verdict — state count, transition count, depth, deadlocks,
// violation or not — identical for every worker count. Workers claim
// chunks of the current layer from a shared cursor, so load balance is
// dynamic within a layer.
//
// The visited set is sharded into Options.Shards lock-striped shards
// keyed by the top bits of the state's 64-bit FNV-1a fingerprint hash.
// By default only the hash is retained (Options.HashOnly), at ~24
// payload bytes per state regardless of configuration size; the full
// canonical fingerprint encoding is kept only in the opt-in audit mode,
// which counts hash collisions (Result.HashCollisions) to back the
// compaction's soundness argument — see DESIGN.md.
//
// Memory: full states live only on the two live BFS layers (current and
// next); visited states are retained as hashes plus, when Options.Trace
// is set, a compact (parent hash, event index) pair per state.
// Counterexample traces are materialized afterwards by replaying the
// recorded event indices from the initial state.
//
// # State-space reduction
//
// Options.Reduce enables a TSO-aware partial-order reduction (the ample
// sets are chosen by gcmodel.AmpleChoice; see gcmodel/reduce.go for the
// commutation argument) and Options.Symmetry keys the visited set by
// mutator-symmetry-canonical fingerprints (gcmodel/symmetry.go). Both
// preserve deterministic verdicts and concrete counterexample replay;
// both are validated against full exploration by the differential
// harness in internal/diffcheck. See DESIGN.md.
package explore

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options bounds and instruments a run.
type Options struct {
	// MaxStates caps the number of distinct states visited (0 = no cap).
	// The cap is checked concurrently by all workers, so a capped run
	// may overshoot by a few states and its exact count can vary across
	// worker counts; uncapped runs are exactly deterministic.
	MaxStates int
	// MaxDepth caps the BFS depth (0 = no cap): states at MaxDepth are
	// still visited and checked, but not expanded.
	MaxDepth int
	// Trace records a compact (parent hash, event index) pair per state
	// so a counterexample path can be reconstructed by replay.
	Trace bool
	// Progress, if non-nil, receives a Progress report roughly every
	// ProgressEvery newly visited states. Reports are driven by a
	// monotonic global state counter, so they can neither skip nor
	// double-report an interval regardless of worker count. The
	// transition count in a report is a mid-layer read of the workers'
	// running totals and may trail the state count slightly.
	Progress func(Progress)
	// ProgressEvery is the number of newly visited states between
	// Progress calls (0 = 8192).
	ProgressEvery int
	// Workers is the number of goroutines expanding each BFS layer
	// (0 = GOMAXPROCS). Verdicts do not depend on the worker count.
	Workers int
	// Shards is the number of lock-striped visited-set shards, rounded
	// up to a power of two (0 = 64).
	Shards int
	// HashOnly stores only the 64-bit fingerprint hash per visited state
	// (compact mode — the production default, wired by package core and
	// cmd/gcmc). When false, the checker additionally retains every
	// state's full canonical fingerprint and counts hash collisions in
	// Result.HashCollisions; this audit mode costs string-fingerprint
	// memory and exists to validate the compaction (the verdict itself
	// is computed from hashes in both modes, so the two modes agree
	// exactly whenever HashCollisions is 0).
	HashOnly bool
	// Reduce enables the TSO-aware partial-order reduction: at states
	// where gcmodel.AmpleChoice nominates a safe buffer-local step
	// (store-buffer enqueues, lock-shielded or single-writer reads,
	// no-op fences, lock releases), only that single transition is
	// pursued and the commuting interleavings against it are skipped.
	// Reduced exploration visits a subset of the full state space and,
	// by the ample-set argument in gcmodel/reduce.go, preserves the
	// verdict; recorded event indices still number the *unreduced*
	// successor enumeration, so counterexamples replay through the
	// unreduced relation. Reduction is validated continuously against
	// full exploration by the differential harness in
	// internal/diffcheck. A reduced run loses the BFS
	// shortest-counterexample guarantee: safe steps are taken eagerly,
	// so a violation may be reported at a greater depth than the
	// minimal one (never a different verdict).
	Reduce bool
	// Symmetry keys the visited set by mutator-symmetry-canonical
	// fingerprints (gcmodel.AppendCanonicalFingerprint): states that
	// differ only by a standing-class-preserving permutation of the
	// mutators collapse into one visited entry. The frontier still
	// carries concrete states, so traces remain concrete runs. No-op
	// for single-mutator models.
	Symmetry bool
	// Hook observes the search. Package core wires analysis.Validator
	// here, and package liveness builds its state graph from it.
	Hook Hook
	// Context, if non-nil, requests graceful interruption: cancellation
	// is observed at layer boundaries only ("finish the current layer"),
	// so an interrupted run stops at a consistent cut, writes a final
	// checkpoint when one is configured, and reports
	// Result.Stopped == StopInterrupted. Mid-layer work is never torn.
	Context context.Context
	// Checkpoint configures periodic snapshots of the search at layer
	// boundaries; see CheckpointOptions.
	Checkpoint CheckpointOptions
	// Resume, if non-nil, restores the search from a snapshot instead of
	// the initial state. The snapshot's options fingerprint must match
	// this run's (model configuration and every verdict-relevant option;
	// the worker count is deliberately excluded, so a run may be resumed
	// with a different parallelism). A mismatch or a corrupt snapshot
	// refuses the run with Result.Stopped == StopResume. A resumed run
	// reaches the same final state/transition/depth counts and verdict
	// as the uninterrupted run.
	Resume *checkpoint.Snapshot
	// MemBudget, if positive, is a soft heap budget in bytes enforced by
	// a watchdog at layer boundaries. As the live heap approaches the
	// budget the run degrades in steps rather than dying to the OOM
	// killer: at 70% it writes a one-time emergency checkpoint (when a
	// checkpoint path is configured); at 85% it drops audit-mode
	// fingerprint retention and continues hash-only (Result.Degraded);
	// at 100% it writes a final checkpoint and stops cleanly with
	// Result.Stopped == StopMemBudget.
	MemBudget int64
	// MemSample overrides the watchdog's heap probe (a test hook; nil
	// means runtime.ReadMemStats HeapAlloc).
	MemSample func() uint64
	// SpillDir, if set, arms the disk-spill degradation rung: at the
	// watchdog's 85% rung the explorer spills visited-set records and
	// frontier layers to CRC-framed section files under this directory
	// and keeps going, so a run that would stop at the 100% rung
	// completes degraded-but-exhaustive (see Result.Spilled). Spilling
	// changes only the representation of the search state, never the
	// verdict, so it is excluded from OptionsFingerprint. A spill I/O
	// failure stops the run loudly with StopSpill. See spill.go.
	SpillDir string
	// FS routes the run's durable writes (checkpoints and spill files)
	// through a storage.FS; nil means the real filesystem. Process-
	// local and verdict-neutral: excluded from OptionsFingerprint.
	FS storage.FS
}

// Hook observes a search. State and Edge run concurrently on the
// workers, but one source state's Edge calls all come from one
// goroutine, in event-index order; Layer runs single-threaded. Any
// field may be nil.
type Hook struct {
	// State sees each newly visited state, the initial one included,
	// after the invariant battery. An error is reported as a
	// "state-check" violation.
	State func(st cimp.System[*gcmodel.Local]) error
	// Edge sees every transition taken, into new and visited states
	// alike, before the target is inserted: from and to are fingerprint
	// hashes, eidx indexes the source's unreduced successor enumeration.
	// An error is reported as an "event-check" violation at the target.
	Edge func(from uint64, eidx int, to uint64, parent, next cimp.System[*gcmodel.Local], ev cimp.Event) error
	// Layer runs once each layer is expanded, a last layer cut short by
	// MaxStates included, before any stop is acted on. It does not run
	// after a worker panic or a failed spill read.
	Layer func()
}

// CheckpointOptions configures run snapshots.
type CheckpointOptions struct {
	// Path is the checkpoint file; empty disables checkpointing. Writes
	// are atomic (temp file + rename), so the file always holds the
	// latest complete snapshot.
	Path string
	// EveryLayers is the number of BFS layers between periodic
	// snapshots (0 = 16 when Path is set). Interruption and the memory
	// watchdog write additional snapshots regardless of cadence.
	EveryLayers int
}

// Progress is one progress report.
type Progress struct {
	// States is the number of distinct states visited so far.
	States int
	// Transitions is the number of transitions taken so far (a mid-layer
	// approximation: workers publish their totals at chunk boundaries).
	Transitions int
	// Depth is the BFS depth currently being expanded into.
	Depth int
	// Frontier is the size of the layer currently being expanded.
	Frontier int
	// Elapsed is the wall-clock time since the run (not the original,
	// pre-resume run) started.
	Elapsed time.Duration
}

// StopReason says why a run ended before exhausting the state space.
type StopReason string

const (
	// StopNone: the reachable state space was exhausted — the verdict is
	// over the complete bounded model.
	StopNone StopReason = ""
	// StopViolation: an invariant failed; the search stopped at the end
	// of the violating layer.
	StopViolation StopReason = "violation"
	// StopMaxStates: the MaxStates cap fired.
	StopMaxStates StopReason = "max-states"
	// StopMaxDepth: the MaxDepth cap fired.
	StopMaxDepth StopReason = "max-depth"
	// StopInterrupted: Options.Context was cancelled; the run finished
	// its layer and stopped at a consistent cut.
	StopInterrupted StopReason = "interrupted"
	// StopMemBudget: the memory watchdog exhausted its degradation
	// ladder and stopped the run.
	StopMemBudget StopReason = "mem-budget"
	// StopPanic: a worker panicked; the run was poisoned and terminated
	// within the layer. Result.Err holds the *PanicError.
	StopPanic StopReason = "panic"
	// StopResume: Options.Resume was refused (options mismatch or a
	// damaged snapshot). Nothing was explored; Result.Err says why.
	StopResume StopReason = "resume-refused"
	// StopSpill: the disk-spill rung was armed but its I/O failed; the
	// run stopped at a boundary rather than complete on a disk that
	// lies. Result.Err names the failed operation.
	StopSpill StopReason = "spill-failed"
)

// PanicError is the structured report of a contained worker panic.
type PanicError struct {
	// Depth is the layer being expanded when the panic fired.
	Depth int
	// StateHash is the fingerprint hash of the state the panicking
	// worker was expanding.
	StateHash uint64
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery
	// (deferred functions run before the stack unwinds, so the panic
	// origin frames are included).
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("worker panic at depth %d (state %016x): %v", p.Depth, p.StateHash, p.Value)
}

// Step is one transition of a counterexample trace.
type Step struct {
	Ev    cimp.Event
	State cimp.System[*gcmodel.Local]
}

// Violation reports an invariant failure at a reachable state.
type Violation struct {
	Invariant string
	Err       error
	Depth     int
	State     cimp.System[*gcmodel.Local]
	// Trace is the path from the initial state (inclusive of the failing
	// state, exclusive of the initial state); empty unless Options.Trace.
	Trace []Step
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s violated at depth %d: %v", v.Invariant, v.Depth, v.Err)
}

// Render formats the violation with its counterexample trace (if
// recorded) for human consumption.
func (v *Violation) Render(m *gcmodel.Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s violated at depth %d: %v\n", v.Invariant, v.Depth, v.Err)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&b, "counterexample (%d steps):\n", len(v.Trace))
		fmt.Fprintf(&b, "  init: %s\n", trace.State(m, m.Initial()))
		for i, s := range v.Trace {
			fmt.Fprintf(&b, "  %3d. %-60s %s\n", i+1, trace.Event(m, s.Ev), trace.State(m, s.State))
		}
	} else {
		fmt.Fprintf(&b, "state: %s\n", trace.State(m, v.State))
	}
	return b.String()
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct reachable states visited.
	States int
	// Transitions is the number of transitions taken.
	Transitions int
	// Depth is the deepest BFS layer reached.
	Depth int
	// Complete reports whether the full reachable state space was
	// exhausted: it is exactly Stopped == StopNone. Any stop — a cap, an
	// interruption, the memory watchdog, a violation, a panic — leaves
	// the run incomplete, and no caller may treat an incomplete run's
	// absence of violations as "the property holds".
	Complete bool
	// Stopped says why the run ended early (StopNone for a complete
	// run).
	Stopped StopReason
	// Err carries the structured error for StopPanic (a *PanicError) and
	// StopResume, or a checkpoint-write failure that did not stop the
	// run. Nil otherwise.
	Err error
	// Checkpoints is the cumulative number of snapshots written,
	// carried across resumes.
	Checkpoints int
	// Degraded reports that the memory watchdog dropped audit-mode
	// fingerprint retention mid-run (or that the run resumed from a
	// degraded snapshot): HashCollisions then undercounts.
	Degraded bool
	// Deadlocks counts states with no outgoing transition.
	Deadlocks int
	// Violation is the minimal-depth invariant failure found, or nil.
	Violation *Violation
	// HashCollisions counts pairs of distinct canonical fingerprints
	// observed to share a 64-bit hash. Only audit mode (HashOnly off)
	// can detect collisions; the count is always 0 in compact mode.
	HashCollisions int
	// AmpleStates counts the expanded states at which the partial-order
	// reduction restricted the successor set to a single safe
	// transition. Always 0 unless Options.Reduce.
	AmpleStates int
	// VisitedBytes is the payload memory retained by the visited set
	// (keys, records, and audit-mode fingerprint strings; Go map bucket
	// overhead excluded).
	VisitedBytes int64
	// Spilled reports the disk-spill rung's counters; zero unless
	// Options.SpillDir was set and the rung fired.
	Spilled SpillStats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// rec is the per-visited-state bookkeeping: the fingerprint hash of the
// parent state and the index of the producing event in the parent's
// (deterministic) successor enumeration. Both are meaningful only when
// Options.Trace is set; eidx is -1 for the initial state.
type rec struct {
	parent uint64
	eidx   int32
}

// recBytes is the visited-set payload per state in compact mode: the
// 8-byte map key plus the 16-byte rec value (Go map bucket overhead not
// counted).
const recBytes = 8 + 16

// shard is one lock stripe of the visited set.
type shard struct {
	mu   sync.Mutex
	recs map[uint64]rec
	// fps retains the canonical fingerprint per hash in audit mode.
	fps        map[uint64]string
	collisions int64
	bytes      int64
	// Spilled representation (see spill.go): keys is the membership-
	// only set, hot buffers the records inserted since the last flush
	// to disk (retained only when traces are needed).
	keys map[uint64]struct{}
	hot  map[uint64]rec
}

// visited is the sharded visited set, keyed by fingerprint hash; the
// shard index is the hash's top bits, so any hash prefix ordering is
// spread evenly across stripes.
type visited struct {
	shards []shard
	shift  uint
	audit  bool
	// spilled switches the shards to membership+hot representation;
	// spillTrace says the hot buffers are live (Options.Trace). Both
	// flip only at a layer boundary.
	spilled    bool
	spillTrace bool
}

func newVisited(n int, audit bool) *visited {
	if n <= 0 {
		n = 64
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	v := &visited{
		shards: make([]shard, n),
		shift:  uint(64 - bits.Len(uint(n-1))),
		audit:  audit,
	}
	for i := range v.shards {
		v.shards[i].recs = make(map[uint64]rec)
		if audit {
			v.shards[i].fps = make(map[uint64]string)
		}
	}
	return v
}

func (v *visited) shard(h uint64) *shard { return &v.shards[h>>v.shift] }

// insert records hash h with bookkeeping r and reports whether the state
// was new. In audit mode fp must be the canonical encoding; a known hash
// carried by a different encoding increments the collision counter (the
// state is still treated as visited, keeping audit-mode verdicts
// identical to compact mode).
func (v *visited) insert(h uint64, r rec, fp []byte) bool {
	s := v.shard(h)
	s.mu.Lock()
	if v.spilled {
		if _, ok := s.keys[h]; ok {
			s.mu.Unlock()
			return false
		}
		s.keys[h] = struct{}{}
		s.bytes += spillKeyBytes
		if v.spillTrace {
			s.hot[h] = r
		}
		s.mu.Unlock()
		return true
	}
	if _, ok := s.recs[h]; ok {
		if v.audit && s.fps[h] != string(fp) {
			s.collisions++
		}
		s.mu.Unlock()
		return false
	}
	s.recs[h] = r
	s.bytes += recBytes
	if v.audit {
		s.fps[h] = string(fp)
		s.bytes += int64(16 + len(fp))
	}
	s.mu.Unlock()
	return true
}

func (v *visited) lookup(h uint64) (rec, bool) {
	s := v.shard(h)
	s.mu.Lock()
	if v.spilled {
		if r, ok := s.hot[h]; ok {
			s.mu.Unlock()
			return r, true
		}
		// Membership-only: the record, if retained at all, is on disk
		// (spillState.loadRecs serves the trace path).
		_, ok := s.keys[h]
		s.mu.Unlock()
		return rec{}, ok
	}
	r, ok := s.recs[h]
	s.mu.Unlock()
	return r, ok
}

// spillConvert switches every shard to the spilled representation:
// membership keys plus (when keep) the existing records as the first
// hot buffer, to be flushed to disk at the next boundary. Runs only at
// a layer boundary (no workers), like dropAudit.
func (v *visited) spillConvert(keep bool) {
	for i := range v.shards {
		s := &v.shards[i]
		s.keys = make(map[uint64]struct{}, len(s.recs))
		for h := range s.recs {
			s.keys[h] = struct{}{}
		}
		if keep {
			s.hot = s.recs
		} else {
			s.hot = nil
		}
		s.recs = nil
		s.bytes = int64(len(s.keys)) * spillKeyBytes
	}
	v.spilled = true
	v.spillTrace = keep
}

// dropAudit releases the audit-mode fingerprint strings and switches the
// set to hash-only operation. Callers invoke it only at a layer boundary
// (no workers running), so flipping v.audit is race-free.
func (v *visited) dropAudit() {
	for i := range v.shards {
		s := &v.shards[i]
		for _, fp := range s.fps {
			s.bytes -= int64(16 + len(fp))
		}
		s.fps = nil
	}
	v.audit = false
}

// fpPool recycles the per-worker fingerprint scratch buffers.
var fpPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// qent is one frontier entry: a full state plus its fingerprint hash.
type qent struct {
	state cimp.System[*gcmodel.Local]
	hash  uint64
}

// explorer is the shared run state of one exploration.
type explorer struct {
	m       *gcmodel.Model
	checks  []invariant.Check
	opt     Options
	workers int
	every   int

	init     cimp.System[*gcmodel.Local]
	initHash uint64
	seen     *visited
	// fp is the visited-set fingerprint encoder: the model's plain
	// encoding, or the mutator-symmetry-canonical one under
	// Options.Symmetry.
	fp func([]byte, cimp.System[*gcmodel.Local]) []byte

	states      atomic.Int64
	transitions atomic.Int64
	ample       atomic.Int64
	deadlocks   atomic.Int64
	capped      atomic.Bool
	violated    atomic.Bool
	lastReport  atomic.Int64

	violMu   sync.Mutex
	viol     *Violation
	violHash uint64

	progressMu  sync.Mutex
	start       time.Time
	frontierLen atomic.Int64

	// Panic containment: a worker panic poisons the run (checked in the
	// chunk-claim loop so every worker bails within its current chunk),
	// and the first panic's structured report wins. curHash[w] tracks the
	// state worker w is expanding, so the report can name it.
	poisoned atomic.Bool
	panicMu  sync.Mutex
	panicErr *PanicError
	curHash  []atomic.Uint64

	// Durability bookkeeping, touched only at layer boundaries.
	optFP       uint64
	optSummary  string
	checkpoints int
	ckptErr     error
	degraded    bool
	emergency   bool
	memSample   func() uint64

	// Disk-spill rung (spill.go). spill is nil unless SpillDir is set;
	// parked points at the on-disk file backing the layer currently
	// being expanded (set at the boundary, before workers start);
	// spillBad poisons the claim loops when a worker's spill read
	// fails, mirroring capped/poisoned.
	spill    *spillState
	parked   *parkedLayer
	spillBad atomic.Bool
}

// Run explores the model's reachable states, checking every invariant at
// every state, and stops at the first (minimal-depth) violation or when
// the space (or a cap) is exhausted.
func Run(m *gcmodel.Model, checks []invariant.Check, opt Options) Result {
	return RunFrom(m, m.Initial(), checks, opt)
}

// RunFrom is Run starting at an explicit initial state, e.g. one with
// fusion disabled for a validation pass.
func RunFrom(m *gcmodel.Model, init cimp.System[*gcmodel.Local], checks []invariant.Check, opt Options) Result {
	start := time.Now()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	every := opt.ProgressEvery
	if every <= 0 {
		every = 8192
	}
	e := &explorer{
		m:         m,
		checks:    checks,
		opt:       opt,
		workers:   workers,
		every:     every,
		init:      init,
		seen:      newVisited(opt.Shards, !opt.HashOnly),
		start:     start,
		curHash:   make([]atomic.Uint64, workers),
		memSample: opt.MemSample,
	}
	if opt.Symmetry {
		e.fp = m.AppendCanonicalFingerprint
	} else {
		e.fp = m.AppendFingerprint
	}
	e.optFP, e.optSummary = OptionsFingerprint(m, checks, opt)
	if e.memSample == nil {
		e.memSample = func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
	}
	if opt.SpillDir != "" {
		e.spill = newSpillState(opt.FS, opt.SpillDir, opt.Trace)
	}
	res := e.run()
	res.Elapsed = time.Since(start)
	return res
}

// OptionsFingerprint hashes everything the verdict depends on: the model
// configuration and every exploration option that changes which states
// are visited, what is checked, or how the visited set is keyed and laid
// out. The worker count is deliberately excluded (the layer barrier
// makes verdicts worker-count independent), so a checkpoint may be
// resumed with different parallelism. The summary string is embedded in
// checkpoints so a refused resume can say what differed. It is exported
// so the job layer (package core) and the verdict cache (package server)
// can key cached verdicts by the exact fingerprint the checkpoint layer
// validates on resume.
func OptionsFingerprint(m *gcmodel.Model, checks []invariant.Check, opt Options) (uint64, string) {
	shards := opt.Shards
	if shards <= 0 {
		shards = 64
	}
	shards = 1 << bits.Len(uint(shards-1))
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name
	}
	summary := fmt.Sprintf(
		"cfg=%+v checks=%v maxStates=%d maxDepth=%d trace=%v hashOnly=%v reduce=%v symmetry=%v shards=%d eventCheck=%v stateCheck=%v",
		m.Cfg, names, opt.MaxStates, opt.MaxDepth, opt.Trace, opt.HashOnly,
		opt.Reduce, opt.Symmetry, shards,
		opt.Hook.Edge != nil, opt.Hook.State != nil,
	)
	return gcmodel.Hash64([]byte(summary)), summary
}

func (e *explorer) run() Result {
	var res Result

	bp := fpPool.Get().(*[]byte)
	buf := e.fp((*bp)[:0], e.init)
	e.initHash = gcmodel.Hash64(buf)

	var layer []qent
	startDepth := 0
	if e.opt.Resume != nil {
		var err error
		layer, startDepth, err = e.restore(e.opt.Resume)
		if err != nil {
			*bp = buf
			fpPool.Put(bp)
			res.Stopped = StopResume
			res.Err = err
			return res
		}
	} else {
		e.seen.insert(e.initHash, rec{eidx: -1}, buf)
		e.states.Store(1)
		if v := e.check(e.init, 0); v != nil {
			*bp = buf
			fpPool.Put(bp)
			res.Violation = v
			res.Stopped = StopViolation
			e.collect(&res)
			return res
		}
		layer = []qent{{state: e.init, hash: e.initHash}}
	}
	*bp = buf
	fpPool.Put(bp)

	every := e.opt.Checkpoint.EveryLayers
	if every <= 0 {
		every = 16
	}
	layersDone := 0
	for depth := startDepth; len(layer) > 0; depth++ {
		res.Depth = depth
		if e.opt.MaxDepth > 0 && depth >= e.opt.MaxDepth {
			res.Stopped = StopMaxDepth
			break
		}
		if e.spill != nil {
			e.parked = e.spill.takeParked()
		}
		layer = e.expandLayer(layer, depth)
		e.parked = nil
		layersDone++
		if e.panicErr != nil {
			// The visited set and counters may be mid-update for this
			// layer: no checkpoint is written from a poisoned run.
			res.Stopped = StopPanic
			res.Err = e.panicErr
			break
		}
		if err := e.spill.firstErr(); err != nil {
			// A worker's spill read failed mid-layer: the layer is torn,
			// so nothing below may treat it as a cut.
			res.Stopped = StopSpill
			res.Err = err
			break
		}
		if e.opt.Hook.Layer != nil {
			e.opt.Hook.Layer()
		}
		if e.violated.Load() {
			res.Stopped = StopViolation
			break
		}
		if e.capped.Load() {
			// Workers bail mid-layer on the cap, so the frontier is not
			// a consistent cut: no checkpoint either.
			res.Stopped = StopMaxStates
			break
		}
		// The layer barrier has been crossed: the frontier at depth+1 is
		// complete and every counter is settled — the only consistent
		// cut. Checkpoints, the memory watchdog, the spill rung, and
		// cancellation all act here.
		if stop := e.watchdog(depth+1, layer, &res); stop {
			if err := e.spill.firstErr(); err != nil {
				res.Stopped = StopSpill
				res.Err = err
			} else {
				res.Stopped = StopMemBudget
			}
			break
		}
		if e.spill != nil && e.spill.isActive() {
			if err := e.spill.boundary(e.m, e.seen, layer); err != nil {
				res.Stopped = StopSpill
				res.Err = err
				break
			}
		}
		if interrupted(e.opt.Context) {
			e.writeCheckpoint(depth+1, layer)
			res.Stopped = StopInterrupted
			break
		}
		if e.opt.Checkpoint.Path != "" && layersDone%every == 0 && len(layer) > 0 {
			e.writeCheckpoint(depth+1, layer)
		}
	}

	if e.viol != nil {
		res.Violation = e.viol
		if e.opt.Trace {
			if path, err := e.tracePath(e.violHash); err != nil {
				// The verdict (a violation) stands; only its replayed
				// counterexample was lost to the failed spill read.
				if res.Err == nil {
					res.Err = err
				}
			} else {
				res.Violation.Trace = e.replay(path)
			}
		}
	}
	res.Complete = res.Stopped == StopNone
	if res.Err == nil {
		res.Err = e.ckptErr
	}
	if e.spill != nil {
		e.spill.cleanup()
	}
	e.collect(&res)
	return res
}

// interrupted reports whether ctx (possibly nil) has been cancelled.
func interrupted(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// watchdog is the layer-boundary memory ladder; see Options.MemBudget.
// It reports true when the run must stop.
func (e *explorer) watchdog(depth int, layer []qent, res *Result) bool {
	if e.opt.MemBudget <= 0 {
		return false
	}
	used := int64(e.memSample())
	switch {
	case used >= e.opt.MemBudget:
		if e.spill != nil {
			// The spill rung replaces the stop: activate (idempotent)
			// and keep exploring from disk. If the spill is broken the
			// run stops anyway — run() turns the latched error into
			// StopSpill rather than StopMemBudget.
			if err := e.activateSpill(); err == nil {
				return false
			}
			return true
		}
		e.writeCheckpoint(depth, layer)
		return true
	case used >= e.opt.MemBudget*85/100:
		if e.seen.audit {
			e.seen.dropAudit()
			e.degraded = true
			runtime.GC()
		}
		if e.spill != nil {
			if err := e.activateSpill(); err != nil {
				return true // latched; run() reports StopSpill
			}
		}
	case used >= e.opt.MemBudget*70/100:
		if !e.emergency {
			e.emergency = true
			e.writeCheckpoint(depth, layer)
		}
	}
	return false
}

// collect folds the atomic and per-shard counters into the result.
func (e *explorer) collect(res *Result) {
	res.States = int(e.states.Load())
	res.Transitions = int(e.transitions.Load())
	res.AmpleStates = int(e.ample.Load())
	res.Deadlocks = int(e.deadlocks.Load())
	res.Checkpoints = e.checkpoints
	res.Degraded = e.degraded
	for i := range e.seen.shards {
		res.HashCollisions += int(e.seen.shards[i].collisions)
		res.VisitedBytes += e.seen.shards[i].bytes
	}
	if e.spill != nil {
		res.Spilled = e.spill.stats()
	}
}

// activateSpill drops audit retention (spilled shards are hash-only by
// construction) and switches the visited set to its on-disk
// representation. Idempotent; boundary-only.
func (e *explorer) activateSpill() error {
	if e.seen.audit {
		e.seen.dropAudit()
		e.degraded = true
	}
	return e.spill.activate(e.seen)
}

// snapshot captures the search at a layer boundary: the frontier at
// depth, the full visited set, and the settled counters. Frontier states
// and shard entries are sorted by fingerprint hash so the snapshot bytes
// are canonical for the cut.
func (e *explorer) snapshot(depth int, layer []qent) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		OptionsFP:   e.optFP,
		Options:     e.optSummary,
		Depth:       depth,
		States:      e.states.Load(),
		Transitions: e.transitions.Load(),
		Ample:       e.ample.Load(),
		Deadlocks:   e.deadlocks.Load(),
		Audit:       e.seen.audit,
		Degraded:    e.degraded,
		Checkpoints: e.checkpoints,
	}
	ord := make([]int, len(layer))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return layer[ord[a]].hash < layer[ord[b]].hash })
	s.Frontier = make([][]byte, len(layer))
	for i, j := range ord {
		s.Frontier[i] = e.m.EncodeState(nil, layer[j].state)
	}
	s.Shards = make([]checkpoint.Shard, len(e.seen.shards))
	for i := range e.seen.shards {
		sh := &e.seen.shards[i]
		hs := make([]uint64, 0, len(sh.recs))
		for h := range sh.recs {
			hs = append(hs, h)
		}
		sort.Slice(hs, func(a, b int) bool { return hs[a] < hs[b] })
		out := checkpoint.Shard{
			Hashes:  hs,
			Parents: make([]uint64, len(hs)),
			EIdxs:   make([]int32, len(hs)),
		}
		if e.seen.audit {
			out.FPs = make([][]byte, len(hs))
		}
		for j, h := range hs {
			r := sh.recs[h]
			out.Parents[j] = r.parent
			out.EIdxs[j] = r.eidx
			if e.seen.audit {
				out.FPs[j] = []byte(sh.fps[h])
			}
		}
		s.Shards[i] = out
	}
	return s
}

// writeCheckpoint snapshots the cut and saves it atomically. A write
// failure does not stop the search; the first failure is surfaced in
// Result.Err.
func (e *explorer) writeCheckpoint(depth int, layer []qent) {
	if e.opt.Checkpoint.Path == "" {
		return
	}
	if e.spill != nil && e.spill.isActive() {
		// A spilled run's records and frontier live on disk already and
		// the in-memory layer holds hashes only: there is nothing a
		// snapshot could capture. Checkpointing is suspended; resuming a
		// spilled run means its last pre-spill checkpoint.
		return
	}
	e.checkpoints++
	snap := e.snapshot(depth, layer)
	if _, err := checkpoint.SaveFS(storage.OrOS(e.opt.FS), e.opt.Checkpoint.Path, snap); err != nil {
		e.checkpoints--
		if e.ckptErr == nil {
			e.ckptErr = err
		}
	}
}

// restore rebuilds the search from a snapshot: validates the options
// fingerprint, repopulates the visited shards (verifying every entry
// lands in the shard its hash selects), and decodes the frontier,
// re-encoding each state to prove the codec round-trips it and checking
// it against the visited set. It returns the frontier and its depth.
func (e *explorer) restore(snap *checkpoint.Snapshot) ([]qent, int, error) {
	if snap.OptionsFP != e.optFP {
		return nil, 0, fmt.Errorf(
			"explore: checkpoint was taken under different options\n  checkpoint: %s\n  this run:   %s",
			snap.Options, e.optSummary)
	}
	if len(snap.Shards) != len(e.seen.shards) {
		return nil, 0, fmt.Errorf("explore: checkpoint has %d shards, this run %d", len(snap.Shards), len(e.seen.shards))
	}
	switch {
	case snap.Audit && !e.seen.audit:
		return nil, 0, fmt.Errorf("explore: audit-mode checkpoint resumed into a hash-only run")
	case !snap.Audit && e.seen.audit:
		if !snap.Degraded {
			return nil, 0, fmt.Errorf("explore: hash-only checkpoint resumed into an audit-mode run")
		}
		// The original audit run was degraded to hash-only by the memory
		// watchdog; the resumed run continues hash-only.
		e.seen.dropAudit()
	}
	e.degraded = snap.Degraded
	for i := range snap.Shards {
		sh := &snap.Shards[i]
		s := &e.seen.shards[i]
		for j, h := range sh.Hashes {
			if int(h>>e.seen.shift) != i {
				return nil, 0, fmt.Errorf("explore: checkpoint shard %d holds hash %016x belonging to shard %d", i, h, h>>e.seen.shift)
			}
			if _, dup := s.recs[h]; dup {
				return nil, 0, fmt.Errorf("explore: checkpoint shard %d holds duplicate hash %016x", i, h)
			}
			s.recs[h] = rec{parent: sh.Parents[j], eidx: sh.EIdxs[j]}
			s.bytes += recBytes
			if e.seen.audit {
				s.fps[h] = string(sh.FPs[j])
				s.bytes += int64(16 + len(sh.FPs[j]))
			}
		}
	}
	if _, ok := e.seen.lookup(e.initHash); !ok {
		return nil, 0, fmt.Errorf("explore: checkpoint visited set does not contain the initial state")
	}
	layer := make([]qent, 0, len(snap.Frontier))
	var scratch []byte
	for i, enc := range snap.Frontier {
		st, rest, err := e.m.DecodeState(enc)
		if err != nil {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d: %d trailing bytes", i, len(rest))
		}
		scratch = e.m.EncodeState(scratch[:0], st)
		if !bytes.Equal(scratch, enc) {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d does not round-trip", i)
		}
		scratch = e.fp(scratch[:0], st)
		h := gcmodel.Hash64(scratch)
		if _, ok := e.seen.lookup(h); !ok {
			return nil, 0, fmt.Errorf("explore: checkpoint frontier state %d (%016x) missing from visited set", i, h)
		}
		layer = append(layer, qent{state: st, hash: h})
	}
	e.states.Store(snap.States)
	e.transitions.Store(snap.Transitions)
	e.ample.Store(snap.Ample)
	e.deadlocks.Store(snap.Deadlocks)
	e.lastReport.Store(snap.States)
	e.checkpoints = snap.Checkpoints
	return layer, snap.Depth, nil
}

// expandLayer expands every state of the depth-d layer and returns the
// depth-d+1 layer. When a violation is found the remainder of the layer
// is still expanded and checked, so that the reported violation is the
// deterministic minimum over the whole layer and the state/transition
// counts do not depend on worker scheduling.
func (e *explorer) expandLayer(layer []qent, depth int) []qent {
	e.frontierLen.Store(int64(len(layer)))
	k := e.workers
	if k > len(layer) {
		k = len(layer)
	}
	chunk := len(layer)/(k*8) + 1
	if chunk > 256 {
		chunk = 256
	}
	var cursor atomic.Int64
	if k == 1 {
		// The single-worker path gets the same containment as the
		// goroutine path: a panic poisons the run instead of crashing.
		var next []qent
		func() {
			defer e.contain(0, depth)
			next = e.expandChunks(layer, depth, &cursor, chunk, 0)
		}()
		return next
	}
	nexts := make([][]qent, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			// Deferred LIFO: contain runs before Done, so the poison and
			// the structured report are published before the barrier
			// releases — a panicking worker can never hang the layer.
			defer wg.Done()
			defer e.contain(w, depth)
			nexts[w] = e.expandChunks(layer, depth, &cursor, chunk, w)
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range nexts {
		total += len(n)
	}
	next := make([]qent, 0, total)
	for _, n := range nexts {
		next = append(next, n...)
	}
	return next
}

// contain is deferred around every worker body: it recovers a panic,
// captures the panicking stack (defers run before unwinding, so the
// origin frames are present) and the state being expanded, and poisons
// the run so the other workers drain their claim loops.
func (e *explorer) contain(w, depth int) {
	r := recover()
	if r == nil {
		return
	}
	pe := &PanicError{
		Depth:     depth,
		StateHash: e.curHash[w].Load(),
		Value:     r,
		Stack:     debug.Stack(),
	}
	e.panicMu.Lock()
	if e.panicErr == nil {
		e.panicErr = pe
	}
	e.panicMu.Unlock()
	e.poisoned.Store(true)
}

// expandChunks is the worker body: it claims chunks of the current layer
// from the shared cursor until the layer is drained (or the state cap
// fires, or a sibling worker poisons the run) and returns its share of
// the next layer.
func (e *explorer) expandChunks(layer []qent, depth int, cursor *atomic.Int64, chunk int, w int) []qent {
	bp := fpPool.Get().(*[]byte)
	buf := *bp
	var next []qent
	var transitions, ample, deadlocks int64
	nd := depth + 1
claim:
	for {
		lo := int(cursor.Add(int64(chunk))) - chunk
		if lo >= len(layer) {
			break
		}
		hi := lo + chunk
		if hi > len(layer) {
			hi = len(layer)
		}
		// A parked layer's states live on disk: fetch this chunk's range
		// with one contiguous read. A failed read poisons the spill (the
		// layer can no longer be expanded completely) and drains every
		// worker, mirroring the cap.
		var fetched []cimp.System[*gcmodel.Local]
		if pl := e.parked; pl != nil {
			var err error
			fetched, err = pl.fetchRange(e.m, lo, hi)
			if err != nil {
				e.spill.fail(err)
				e.spillBad.Store(true)
				break claim
			}
		}
		for i := lo; i < hi; i++ {
			if e.capped.Load() || e.poisoned.Load() || e.spillBad.Load() {
				break claim
			}
			cur := layer[i]
			if fetched != nil {
				cur.state = fetched[i-lo]
			}
			e.curHash[w].Store(cur.hash)
			var amp gcmodel.Ample
			if e.opt.Reduce {
				amp = e.m.AmpleChoice(cur.state)
			}
			out, taken := e.expandState(cur, nd, amp, &next, &transitions, &buf)
			if amp.OK {
				if taken > 0 {
					ample++
				} else {
					// The oracle nominated a transition the relation
					// refused (safeRequest should mirror the system
					// guards exactly); expand fully rather than
					// truncate the search. Nothing was inserted by the
					// filtered pass, so re-expansion is clean.
					out, _ = e.expandState(cur, nd, gcmodel.Ample{}, &next, &transitions, &buf)
				}
			}
			if out == 0 {
				deadlocks++
			}
		}
		// Publish the transition total at chunk boundaries so progress
		// reports see a near-current count mid-layer.
		e.transitions.Add(transitions)
		transitions = 0
	}
	e.transitions.Add(transitions)
	e.ample.Add(ample)
	e.deadlocks.Add(deadlocks)
	*bp = buf
	fpPool.Put(bp)
	return next
}

// expandState enumerates cur's successors — restricted to the ample
// transition when amp.OK — inserting new states into the visited set
// and the caller's next layer. It returns the full successor count and
// the number of transitions actually taken. Event indices always
// number the complete, unreduced enumeration (skipped successors still
// advance eidx), so traces recorded under reduction replay through the
// unreduced relation.
func (e *explorer) expandState(cur qent, nd int, amp gcmodel.Ample, next *[]qent, transitions *int64, buf *[]byte) (out, taken int) {
	b := *buf
	e.m.Successors(cur.state, func(ns cimp.System[*gcmodel.Local], ev cimp.Event) {
		eidx := out
		out++
		if amp.OK && !amp.Matches(ev) {
			return
		}
		taken++
		*transitions++
		b = e.fp(b[:0], ns)
		h := gcmodel.Hash64(b)
		if e.opt.Hook.Edge != nil {
			if err := e.opt.Hook.Edge(cur.hash, eidx, h, cur.state, ns, ev); err != nil {
				e.offerViolation(&Violation{Invariant: "event-check", Err: err, Depth: nd, State: ns}, h)
				return
			}
		}
		var r rec
		if e.opt.Trace {
			r = rec{parent: cur.hash, eidx: int32(eidx)}
		}
		if !e.seen.insert(h, r, b) {
			return
		}
		n := e.states.Add(1)
		e.maybeProgress(n, nd)
		if e.opt.MaxStates > 0 && n >= int64(e.opt.MaxStates) {
			e.capped.Store(true)
		}
		if v := e.check(ns, nd); v != nil {
			e.offerViolation(v, h)
			return
		}
		if !e.violated.Load() {
			*next = append(*next, qent{state: ns, hash: h})
		}
	})
	*buf = b
	return out, taken
}

// check evaluates the invariant battery, then the state hook, at st.
func (e *explorer) check(st cimp.System[*gcmodel.Local], depth int) *Violation {
	if len(e.checks) > 0 {
		g := gcmodel.Global{Model: e.m, State: st}
		v := invariant.NewView(g)
		for _, c := range e.checks {
			if err := c.Pred(v); err != nil {
				return &Violation{Invariant: c.Name, Err: err, Depth: depth, State: st}
			}
		}
	}
	if e.opt.Hook.State != nil {
		if err := e.opt.Hook.State(st); err != nil {
			return &Violation{Invariant: "state-check", Err: err, Depth: depth, State: st}
		}
	}
	return nil
}

// offerViolation records a violation candidate. All candidates of a run
// come from the same BFS layer (the barrier stops descent), so they
// share the minimal depth; the fingerprint hash breaks the tie between
// them deterministically, independent of worker scheduling.
func (e *explorer) offerViolation(v *Violation, h uint64) {
	e.violMu.Lock()
	if e.viol == nil || h < e.violHash {
		e.viol, e.violHash = v, h
	}
	e.violMu.Unlock()
	e.violated.Store(true)
}

// maybeProgress reports progress when at least ProgressEvery states have
// been visited since the last report. The CAS on the monotonic counter
// guarantees each interval is reported exactly once, from whichever
// worker crosses it.
func (e *explorer) maybeProgress(n int64, depth int) {
	if e.opt.Progress == nil {
		return
	}
	last := e.lastReport.Load()
	if n-last < int64(e.every) || !e.lastReport.CompareAndSwap(last, n) {
		return
	}
	e.progressMu.Lock()
	e.opt.Progress(Progress{
		States:      int(n),
		Transitions: int(e.transitions.Load()),
		Depth:       depth,
		Frontier:    int(e.frontierLen.Load()),
		Elapsed:     time.Since(e.start),
	})
	e.progressMu.Unlock()
}

// pathStep is one edge of a counterexample path: the fingerprint hash of
// the state it leads to and the event index that produces it from its
// predecessor.
type pathStep struct {
	hash uint64
	eidx int32
}

// tracePath walks parent links from h back to the initial state and
// returns the path in forward order, initial state excluded. Under an
// active spill the flushed records are read back from disk first; an
// unreadable spill file is an error (the violation verdict stands,
// only its replayed counterexample is lost).
func (e *explorer) tracePath(h uint64) ([]pathStep, error) {
	var spilled map[uint64]rec
	if e.spill != nil && e.spill.isActive() {
		m, err := e.spill.loadRecs()
		if err != nil {
			return nil, err
		}
		spilled = m
	}
	var rev []pathStep
	for h != e.initHash {
		r, ok := spilled[h]
		if !ok {
			// Not flushed yet: the hot buffer (or, unspilled, the
			// ordinary record map) has it.
			r, ok = e.seen.lookup(h)
		}
		if !ok {
			panic("explore: visited-set parent chain broken (fingerprint hash collision?)")
		}
		rev = append(rev, pathStep{hash: h, eidx: r.eidx})
		h = r.parent
	}
	path := make([]pathStep, len(rev))
	for i, p := range rev {
		path[len(rev)-1-i] = p
	}
	return path, nil
}

// replay materializes the states along a counterexample path by
// re-running the transition relation from the initial state, selecting
// at each step the recorded event index. Enumeration past the match does
// no work, and one pooled scratch buffer serves every hash
// cross-check along the way.
func (e *explorer) replay(path []pathStep) []Step {
	steps := make([]Step, 0, len(path))
	cur := e.init
	bp := fpPool.Get().(*[]byte)
	buf := *bp
	for _, ps := range path {
		found := false
		idx := int32(0)
		e.m.Successors(cur, func(next cimp.System[*gcmodel.Local], ev cimp.Event) {
			if found {
				return
			}
			if idx == ps.eidx {
				buf = e.fp(buf[:0], next)
				if gcmodel.Hash64(buf) != ps.hash {
					panic("explore: counterexample replay diverged (fingerprint hash collision?)")
				}
				steps = append(steps, Step{Ev: ev, State: next})
				cur = next
				found = true
				return
			}
			idx++
		})
		if !found {
			// Should be impossible: the path came from this relation.
			panic("explore: counterexample replay diverged")
		}
	}
	*bp = buf
	fpPool.Put(bp)
	return steps
}
