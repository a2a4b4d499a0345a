package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/verdict"
)

// answer is the verdict-relevant outcome of one checker input: what a
// correct program must report for it, whatever its speed.
type answer struct {
	Verdict     string `json:"verdict"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`
	// Invariant and TraceLen describe a safety counterexample.
	Invariant string `json:"invariant,omitempty"`
	TraceLen  int    `json:"trace_len,omitempty"`
	// Lasso names the first progress property with a lasso
	// counterexample ("" when every property holds or none was checked).
	Lasso string `json:"lasso,omitempty"`
}

// goldenEntry pins one input's answer. The table under golden.json was
// measured once at the commit that introduced the benchmark (regenerate
// with `go test -run TestGolden -update`); runs only compare against it.
type goldenEntry struct {
	Name   string       `json:"name"`
	Spec   core.JobSpec `json:"spec"`
	Answer answer       `json:"answer"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenTable maps specKey(spec) to the expected answer.
type goldenTable map[string]goldenEntry

func loadGolden(data []byte) (goldenTable, error) {
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("golden table: %w", err)
	}
	g := goldenTable{}
	for _, e := range entries {
		k := specKey(e.Spec)
		if _, dup := g[k]; dup {
			return nil, fmt.Errorf("golden table: duplicate spec %s", e.Name)
		}
		g[k] = e
	}
	return g, nil
}

// specKey identifies a spec's answer. The worker count does not change
// verdicts, so it is not part of the key.
func specKey(spec core.JobSpec) string {
	spec.Options.Workers = 0
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // JobSpec is plain data; marshalling cannot fail
	}
	return string(b)
}

// check compares got with the pinned answer for spec.
func (g goldenTable) check(spec core.JobSpec, got answer) error {
	e, ok := g[specKey(spec)]
	if !ok {
		return fmt.Errorf("no golden answer for %s", specKey(spec))
	}
	if got != e.Answer {
		return fmt.Errorf("%s: got %+v, golden %+v", e.Name, got, e.Answer)
	}
	return nil
}

func answerFromResult(res core.VerifyResult) answer {
	a := answer{
		Verdict:     res.Status(),
		States:      res.States,
		Transitions: res.Transitions,
		Depth:       res.Depth,
	}
	if v := res.Violation; v != nil {
		a.Invariant, a.TraceLen = v.Invariant, len(v.Trace)
	}
	if lr := res.Liveness; lr != nil {
		for _, p := range lr.Properties {
			if !p.Holds {
				a.Lasso = p.Name
				break
			}
		}
	}
	return a
}

func answerFromRecord(rec *verdict.Record) answer {
	a := answer{
		Verdict:     rec.Verdict,
		States:      rec.States,
		Transitions: rec.Transitions,
		Depth:       rec.Depth,
	}
	if v := rec.Violation; v != nil {
		a.Invariant, a.TraceLen = v.Invariant, v.TraceLen
	}
	if l := rec.Liveness; l != nil {
		for _, p := range l.Properties {
			if !p.Holds {
				a.Lasso = p.Name
				break
			}
		}
	}
	return a
}

// specName renders a readable label: preset/memory/ablations[/dN].
func specName(spec core.JobSpec) string {
	mem := "tso"
	a := spec.Ablations
	if a.SCMemory {
		mem = "sc"
		a.SCMemory = false
	}
	abl := a.String()
	if abl == "" {
		abl = "clean"
	}
	parts := []string{spec.Preset, mem, abl}
	if spec.Options.MaxDepth > 0 {
		parts = append(parts, fmt.Sprintf("d%d", spec.Options.MaxDepth))
	}
	if spec.Options.Liveness {
		parts = append(parts, "liveness")
	}
	return strings.Join(parts, "/")
}
