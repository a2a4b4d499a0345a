package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestManifestMatchesCode keeps BENCHMARK.json, the benchmark's manifest
// at the repository root, in step with the workloads and metrics the
// code reports.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var mnames []string
	for _, w := range m.Workloads {
		mnames = append(mnames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(mnames, ",") {
		t.Errorf("workloads: code %v, manifest %v", names, mnames)
	}
	same := func(what string, code []metricDef, man []struct{ Name, Unit string }) {
		if len(code) != len(man) {
			t.Errorf("%s: code has %d metrics, manifest %d", what, len(code), len(man))
			return
		}
		for i := range code {
			if code[i].name != man[i].Name || code[i].unit != man[i].Unit {
				t.Errorf("%s[%d]: code %v, manifest %v", what, i, code[i], man[i])
			}
		}
	}
	same("end_to_end", e2eMetrics, m.EndToEnd)
	same("per_layer", perLayerMetrics, m.PerLayer)
}

// TestGoldenMismatchFailsRun runs a checker workload against a table
// whose expected state count is off by one: the run must count the
// verdict as failed and the command must exit non-zero.
func TestGoldenMismatchFailsRun(t *testing.T) {
	spec := core.JobSpec{Preset: "tiny", Options: core.JobOptions{MaxDepth: 10}}
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seconds: time.Nanosecond, golden: g}
	o, err := runChecker(spec)(e)
	if err != nil || o.failed != 0 || o.attempted != 1 {
		t.Fatalf("true table: %+v, %v", o, err)
	}
	bad := goldenTable{}
	for k, v := range g {
		bad[k] = v
	}
	ent := bad[specKey(spec)]
	ent.Answer.States--
	bad[specKey(spec)] = ent
	e.golden = bad
	o, err = runChecker(spec)(e)
	if err != nil || o.failed != 1 {
		t.Fatalf("wrong table: failed=%d, err %v", o.failed, err)
	}
	delete(bad, specKey(spec))
	o, err = runChecker(spec)(e)
	if err != nil || o.failed != 1 {
		t.Fatalf("table without the spec: failed=%d, err %v", o.failed, err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "gcrt-churn", "--trace", "2"},
		{"--workload", "gcrt-churn", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || strings.Contains(out.String(), "correct") {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
