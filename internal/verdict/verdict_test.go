package verdict_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/verdict"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// record runs a spec and returns its canonical verdict record.
func record(t *testing.T, spec core.JobSpec) verdict.Record {
	t.Helper()
	cfg, opt, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := core.Verify(cfg, opt)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	fp, _, err := spec.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	rec := verdict.New(spec.Preset, spec.Ablations, fp, res)
	rec.Build = "test-build" // prove Canonical strips it
	return rec.Canonical()
}

// TestGolden pins the wire format: the canonical JSON of a bounded
// clean run, of a violation run and of two liveness-violation runs
// (including their rendered lassos) must match the checked-in golden
// files byte for byte. Run with -update to regenerate after a
// deliberate schema change.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		spec core.JobSpec
		exit int
	}{
		{
			name: "no-violation",
			spec: core.JobSpec{Preset: "tiny", Options: core.JobOptions{MaxDepth: 12}},
			exit: 0,
		},
		{
			name: "violation",
			spec: core.JobSpec{
				Preset:    "tiny",
				Ablations: core.Ablations{NoDeletionBarrier: true},
				Options:   core.JobOptions{Workers: 1, MaxDepth: 50},
			},
			exit: 1,
		},
		{
			name: "liveness-mute-handshake",
			spec: core.JobSpec{
				Preset:    "tiny",
				Ablations: core.Ablations{MuteHandshake: true},
				Options:   core.JobOptions{Liveness: true},
			},
			exit: 1,
		},
		{
			name: "liveness-no-dequeue",
			spec: core.JobSpec{
				Preset:    "tiny",
				Ablations: core.Ablations{NoDequeue: true},
				Options:   core.JobOptions{Liveness: true},
			},
			exit: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := record(t, tc.spec)
			got, err := rec.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("canonical record drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
			if rec.Build != "" {
				t.Errorf("Canonical kept Build %q", rec.Build)
			}
			if code := rec.ExitCode(); code != tc.exit {
				t.Errorf("ExitCode = %d, want %d", code, tc.exit)
			}
		})
	}
}

// TestCanonicalZeroing checks that every non-deterministic field is
// stripped without mutating the receiver's liveness block.
func TestCanonicalZeroing(t *testing.T) {
	orig := verdict.Record{
		Schema:      verdict.Schema,
		Build:       "b",
		ElapsedSec:  1.5,
		Checkpoints: 3,
		Cached:      true,
		Liveness:    &verdict.Liveness{ElapsedSec: 2.5, Holds: true},
	}
	canon := orig.Canonical()
	if canon.Build != "" || canon.ElapsedSec != 0 || canon.Checkpoints != 0 || canon.Cached {
		t.Errorf("Canonical left non-deterministic fields: %+v", canon)
	}
	if canon.Liveness.ElapsedSec != 0 || !canon.Liveness.Holds {
		t.Errorf("Canonical mishandled liveness: %+v", canon.Liveness)
	}
	if orig.Liveness.ElapsedSec != 2.5 {
		t.Errorf("Canonical mutated the original liveness block")
	}
}

// TestGoSrcLintGolden pins the gclint.gosrc/v1 wire format: a fixed
// report (one clean pass, one pass with a finding) must marshal to the
// checked-in golden file byte for byte.
func TestGoSrcLintGolden(t *testing.T) {
	rep := verdict.GoSrcLint{
		Schema: verdict.GoSrcSchema,
		Clean:  false,
		Passes: []verdict.GoSrcPass{
			{
				Pass:  "gcrt-discipline",
				Dir:   "internal/gcrt",
				Clean: true,
			},
			{
				Pass:  "goroutine-recover-guard",
				Dir:   "internal/server",
				Clean: false,
				Findings: []verdict.GoSrcFinding{
					{
						Pos:     "internal/server/server.go:12:2",
						Func:    "worker",
						Message: "goroutine has no deferred recover guard: a worker panic kills the whole run",
					},
				},
			},
		},
	}
	if rep.Schema != verdict.GoSrcSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, verdict.GoSrcSchema)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "gosrc_lint.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gosrc lint report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
