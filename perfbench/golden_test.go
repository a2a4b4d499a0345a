package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "recompute golden.json with core.RunJob (minutes)")

// goldenInputs is every checker input the benchmark checks answers for.
func goldenInputs() []core.JobSpec {
	return append([]core.JobSpec{tinyTSOSpec, tinySCLivenessSpec}, servicePool()...)
}

// TestGolden regenerates the table with -update; otherwise it checks
// that the table covers every input exactly once.
func TestGolden(t *testing.T) {
	if *update {
		var entries []goldenEntry
		for _, s := range goldenInputs() {
			res, _, err := core.RunJob(s, core.JobRun{})
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, goldenEntry{Name: specName(s), Spec: s, Answer: answerFromResult(res)})
			t.Logf("%s: %+v", specName(s), entries[len(entries)-1].Answer)
		}
		data, err := json.MarshalIndent(entries, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenInputs()
	if len(g) != len(in) {
		t.Errorf("golden table has %d entries, the benchmark has %d inputs", len(g), len(in))
	}
	for _, s := range in {
		if _, ok := g[specKey(s)]; !ok {
			t.Errorf("no golden answer for %s", specName(s))
		}
	}
}

// TestGoldenPinsHeadlineAnswers keeps the table's headline answers equal
// to the numbers the repository's tests and EXPERIMENTS.md pin.
func TestGoldenPinsHeadlineAnswers(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]answer{
		"tiny/tso/clean":         {Verdict: "verified", States: 997438, Transitions: 2795677, Depth: 258},
		"tiny/sc/clean/liveness": {Verdict: "verified", States: 306838, Transitions: 653023, Depth: 228},
	}
	for _, e := range g {
		if w, ok := want[e.Name]; ok && e.Answer != w {
			t.Errorf("%s: golden %+v, want %+v", e.Name, e.Answer, w)
		}
	}
}
