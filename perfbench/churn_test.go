package main

import (
	"testing"
	"time"
)

// TestChurnTraced runs a short traced churn: no faults, a clean audit,
// and the sampled call timings and runtime counters filled in.
func TestChurnTraced(t *testing.T) {
	e := &env{seed: 5, seconds: 300 * time.Millisecond, tr: newTracer()}
	o, err := runChurn(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range o.failures {
		t.Error(f)
	}
	if o.attempted == 0 {
		t.Fatal("no collection cycle ran")
	}
	for _, m := range []string{"gcrt.alloc_ns", "gcrt.store_ns", "gcrt.safepoint_ns", "gcrt.scanned_per_cycle", "gcrt.freed_per_cycle"} {
		if o.layer[m] <= 0 {
			t.Errorf("%s = %v", m, o.layer[m])
		}
	}
	if o.e2e["throughput_per_s"] <= 0 || o.e2e["latency_p50_ms"] <= 0 {
		t.Errorf("end-to-end metrics missing: %v", o.e2e)
	}
}
