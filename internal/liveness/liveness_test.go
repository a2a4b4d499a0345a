package liveness_test

import (
	"strings"
	"testing"

	"repro/internal/gcmodel"
	"repro/internal/liveness"
)

// smallConfig is shared with the package's internal tests.
var smallConfig = liveness.SmallConfig

func build(t *testing.T, cfg gcmodel.Config) *gcmodel.Model {
	t.Helper()
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCleanModelSatisfiesAllProperties(t *testing.T) {
	m := build(t, smallConfig())
	res, err := liveness.Check(m, liveness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("uncapped run not complete")
	}
	if !res.Holds() {
		for _, p := range res.Violations() {
			t.Errorf("property %s violated on the clean model:\n%s",
				p.Name, p.Counterexample.Render(m))
		}
	}
	if len(res.Properties) != 4 { // hs-ack-m0, gc-sweep, buf-drain-gc, buf-drain-m0
		t.Fatalf("expected 4 properties, got %d", len(res.Properties))
	}
}

func TestMuteHandshakeViolatesAcknowledgement(t *testing.T) {
	cfg := smallConfig()
	cfg.MuteHandshake = true
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]liveness.PropertyResult)
	for _, p := range res.Properties {
		byName[p.Name] = p
	}
	if byName["hs-ack-m0"].Holds {
		t.Error("hs-ack-m0 should be violated when mutators never poll")
	}
	if byName["gc-sweep"].Holds {
		t.Error("gc-sweep should be violated when the collector can never finish a handshake")
	}
	for _, p := range res.Violations() {
		if p.Counterexample == nil {
			t.Fatalf("%s: violated without a counterexample", p.Name)
		}
		if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
			t.Errorf("%s: lasso does not replay: %v", p.Name, err)
		}
	}
}

func TestNoDequeueViolatesBufferDrain(t *testing.T) {
	cfg := smallConfig()
	cfg.NoDequeue = true
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	violated := make(map[string]bool)
	for _, p := range res.Violations() {
		violated[p.Name] = true
		if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
			t.Errorf("%s: lasso does not replay: %v", p.Name, err)
		}
	}
	if !violated["buf-drain-gc"] {
		t.Error("buf-drain-gc should be violated when the system never dequeues")
	}
	if violated["hs-ack-m0"] {
		t.Error("hs-ack-m0 should still hold: handshake state is not subject to TSO")
	}
}

// TestLassoReplaysThroughUnreducedRelation is the liveness analogue of
// diffcheck's replay validation: the recorded stem must be a genuine
// run of the unreduced transition relation, the cycle must return
// exactly to the cycle head, and tampering with either must be caught.
func TestLassoReplaysThroughUnreducedRelation(t *testing.T) {
	cfg := smallConfig()
	cfg.MuteHandshake = true
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Violations()
	if len(vs) == 0 {
		t.Fatal("expected a violation to replay")
	}
	l := vs[0].Counterexample

	// The lasso replays through the model's own transition relation
	// (states carry per-Build command identity, so replay uses the same
	// model instance — as diffcheck.VerifyReplay does for safety).
	if err := liveness.VerifyLasso(m, l); err != nil {
		t.Fatalf("lasso does not replay: %v", err)
	}

	// The head state is the stem's last state and the cycle's last
	// state — the defining lasso shape.
	head := l.Head(m)
	last := l.Cycle[len(l.Cycle)-1].State
	if m.Fingerprint(head) != m.Fingerprint(last) {
		t.Error("cycle does not end at the lasso head")
	}

	// Tampering with the cycle must be detected.
	if len(l.Cycle) > 0 {
		broken := &liveness.Lasso{Stem: l.Stem, Cycle: l.Cycle[:len(l.Cycle)-1]}
		if err := liveness.VerifyLasso(m, broken); err == nil {
			t.Error("truncated cycle still verifies")
		}
	}
	if len(l.Stem) > 1 {
		broken := &liveness.Lasso{Stem: l.Stem[1:], Cycle: l.Cycle}
		if err := liveness.VerifyLasso(m, broken); err == nil {
			t.Error("truncated stem still verifies")
		}
	}
	empty := &liveness.Lasso{Stem: l.Stem}
	if err := liveness.VerifyLasso(m, empty); err == nil {
		t.Error("empty cycle still verifies")
	}

	// Rendering mentions the lasso shape.
	out := l.Render(m)
	if !strings.Contains(out, "cycle") || !strings.Contains(out, "repeat") {
		t.Errorf("render lacks cycle marker:\n%s", out)
	}
}

func TestByNameSelectsSubset(t *testing.T) {
	m := build(t, smallConfig())
	props, err := liveness.ByName(m, []string{"gc-sweep", "hs-ack-m0"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := liveness.Check(m, liveness.Options{Properties: props})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Properties) != 2 {
		t.Fatalf("expected 2 verdicts, got %d", len(res.Properties))
	}
	if res.Properties[0].Name != "gc-sweep" || res.Properties[1].Name != "hs-ack-m0" {
		t.Fatalf("verdicts out of order: %v", res.Properties)
	}
	if _, err := liveness.ByName(m, []string{"no-such-property"}); err == nil {
		t.Fatal("unknown property name accepted")
	}
}

func TestCappedRunIsInconclusiveButSound(t *testing.T) {
	cfg := smallConfig()
	cfg.MuteHandshake = true
	m := build(t, cfg)
	res, err := liveness.Check(m, liveness.Options{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("capped run reported complete")
	}
	if res.States > 50 {
		t.Fatalf("cap not respected: %d states", res.States)
	}
	// Any violation a capped run does report must still replay: capped
	// graphs under-approximate, they never fabricate.
	for _, p := range res.Violations() {
		if err := liveness.VerifyLasso(m, p.Counterexample); err != nil {
			t.Errorf("%s: capped-run lasso does not replay: %v", p.Name, err)
		}
	}
}

// TestCappedCleanRunFabricatesNothing is the regression test for a
// capped-run soundness bug: edges dropped at the MaxStates boundary
// must not subtract from the enabled mask, or weak fairness would
// excuse genuinely enabled entities and report "fair" cycles on a
// model that has none.
func TestCappedCleanRunFabricatesNothing(t *testing.T) {
	m := build(t, smallConfig())
	for _, cap := range []int{50, 500, 5000} {
		res, err := liveness.Check(m, liveness.Options{MaxStates: cap})
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatalf("cap %d should truncate the graph", cap)
		}
		for _, p := range res.Violations() {
			t.Errorf("cap %d: fabricated violation of %s:\n%s",
				cap, p.Name, p.Counterexample.Render(m))
		}
	}
}

func TestGraphMatchesSafetyExploration(t *testing.T) {
	// The liveness pass materializes the same unreduced relation the
	// safety checker explores; states, transitions, and depth must agree
	// exactly (this is also the EXPERIMENTS.md liveness-vs-safety
	// comparison in miniature).
	m := build(t, smallConfig())
	res, err := liveness.Check(m, liveness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.States == 0 || res.Transitions < res.States-1 {
		t.Fatalf("implausible graph: %d states, %d transitions", res.States, res.Transitions)
	}
	if res.GraphBytes == 0 {
		t.Fatal("graph bytes not accounted")
	}
	// The exact cross-check against explore.Run lives in the core
	// package tests to avoid an import cycle here.
}
