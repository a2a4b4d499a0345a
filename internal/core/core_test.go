package core

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]ModelConfig{
		"tiny":        TinyConfig(),
		"alloc":       AllocConfig(),
		"two-mutator": TwoMutatorConfig(),
		"chain":       ChainConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
}

func TestVerifyRejectsInvalidConfig(t *testing.T) {
	if _, err := Verify(ModelConfig{}, VerifyOptions{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestVerifyBoundedRunHoldsOnSafeModel(t *testing.T) {
	res, err := Verify(TinyConfig(), VerifyOptions{MaxStates: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoViolation() {
		t.Fatalf("violation:\n%s", res.RenderViolation())
	}
	if res.Complete {
		t.Fatal("30k-state cap should not exhaust the tiny config")
	}
	// A capped run must never claim the property holds: Holds demands a
	// complete exploration.
	if res.Holds() {
		t.Fatal("Holds() true on an incomplete (capped) run")
	}
	if res.Status() != "no-violation" {
		t.Fatalf("Status() = %q on a clean capped run, want no-violation", res.Status())
	}
	if res.RenderViolation() != "" {
		t.Fatal("RenderViolation non-empty without violation")
	}
}

func TestVerifyFindsAblationViolationWithTrace(t *testing.T) {
	cfg := TinyConfig()
	cfg.NoDeletionBarrier = true
	res, err := Verify(cfg, VerifyOptions{Trace: true, HeadlineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds() {
		t.Fatal("ablated model verified")
	}
	rendered := res.RenderViolation()
	if !strings.Contains(rendered, "valid_refs_inv") || !strings.Contains(rendered, "counterexample") {
		t.Fatalf("violation rendering incomplete:\n%s", rendered)
	}
}

// livenessTestConfig is TinyConfig shrunk (stores only, budget 1) so
// the liveness pass, a second full exploration that also keeps the
// state graph, stays in test time.
func livenessTestConfig() ModelConfig {
	cfg := TinyConfig()
	cfg.OpBudget = 1
	cfg.MaxBuf = 1
	cfg.DisableLoad = true
	cfg.DisableDiscard = true
	return cfg
}

func TestVerifyLivenessCleanModel(t *testing.T) {
	res, err := Verify(livenessTestConfig(), VerifyOptions{Liveness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Liveness == nil {
		t.Fatal("liveness result missing")
	}
	if !res.Holds() {
		t.Fatalf("clean model violated: %+v", res.Liveness.Violations())
	}
	// The liveness pass re-explores the same unreduced relation the
	// safety checker just walked: the graphs must agree exactly.
	if res.Liveness.States != res.States ||
		res.Liveness.Transitions != res.Transitions ||
		res.Liveness.Depth != res.Depth {
		t.Fatalf("liveness graph (%d states, %d transitions, depth %d) disagrees with safety exploration (%d, %d, %d)",
			res.Liveness.States, res.Liveness.Transitions, res.Liveness.Depth,
			res.States, res.Transitions, res.Depth)
	}
}

func TestVerifyLivenessAblatedModel(t *testing.T) {
	cfg := livenessTestConfig()
	cfg.MuteHandshake = true
	res, err := Verify(cfg, VerifyOptions{Liveness: true, LivenessProps: []string{"hs-ack-m0"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected safety violation:\n%s", res.RenderViolation())
	}
	if res.Holds() {
		t.Fatal("muted-handshake model should violate hs-ack-m0")
	}
	vs := res.Liveness.Violations()
	if len(vs) != 1 || vs[0].Name != "hs-ack-m0" || vs[0].Counterexample == nil {
		t.Fatalf("expected a single hs-ack-m0 counterexample, got %+v", vs)
	}
}

// TestVerifyLivenessProgressEvery checks that the liveness pass reports
// progress at the run's ProgressEvery, like the safety pass, rather
// than at the checker default of 8192 states.
func TestVerifyLivenessProgressEvery(t *testing.T) {
	const every = 100
	var reports []Progress
	res, err := Verify(livenessTestConfig(), VerifyOptions{
		Liveness:      true,
		ProgressEvery: every,
		Progress:      func(p Progress) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The liveness phase starts where the state count drops back.
	live := 0
	for i := 1; i < len(reports); i++ {
		if live > 0 || reports[i].States < reports[i-1].States {
			live++
		}
	}
	if want := res.Liveness.States/every - 1; live < want {
		t.Fatalf("liveness pass over %d states sent %d progress reports, want at least %d (one per %d states)",
			res.Liveness.States, live, want, every)
	}
}

func TestVerifyLivenessRejectsUnknownProperty(t *testing.T) {
	_, err := Verify(livenessTestConfig(), VerifyOptions{Liveness: true, LivenessProps: []string{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "unknown property") {
		t.Fatalf("expected unknown-property error, got %v", err)
	}
}

func TestSimulateRunsToCompletion(t *testing.T) {
	cfg := AllocConfig()
	cfg.OpBudget = 0 // walks need no bounded-context reduction
	res, err := Simulate(cfg, SimulateOptions{Seed: 1, Steps: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation: %v", res.Violation)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles completed")
	}
}

func TestNewRuntimeRoundTrip(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Slots: 8, Fields: 1, Mutators: 1})
	m := rt.Mutator(0)
	a := m.Alloc()
	if a == -1 {
		t.Fatal("alloc failed")
	}
	m.Park()
	rt.Collect()
	m.Unpark()
	if !rt.Arena().Allocated(m.Root(a)) {
		t.Fatal("rooted object collected")
	}
}
