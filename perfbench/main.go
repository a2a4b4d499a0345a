// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of core, server and gcrt, checks
// every answer against the golden table (golden.json), and prints the
// workload's metrics, ending with one JSON result line:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is a separate traced run that reports the per-layer metrics and
// writes its spans under -out. METRICS.md documents every workload and
// metric. Build and run it from the repository root with
// perfbench/run.sh, which passes its arguments through:
//
//	bash perfbench/run.sh --workload tiny-tso-verify --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed used when --seed is not given; it is recorded
// in every result's provenance block.
const defaultSeed = 1

// runLimit bounds one run, set-up and traced work included.
const runLimit = 170 * time.Second

// stealLimit is the share of the machine's CPU time stolen by the
// hypervisor above which an untraced measurement is taken again (once,
// and only when the first took under a third of runLimit). On the 2-vCPU
// machine the benchmark was sized on, runs with 4-6% steal were 15-25%
// slower than their neighbours.
const stealLimit = 0.03

type workloadDef struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	{"tiny-tso-verify", runChecker(tinyTSOSpec)},
	{"tiny-sc-liveness", runChecker(tinySCLivenessSpec)},
	{"service-corpus", runService},
	{"gcrt-churn", runChurn},
}

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload on untraced runs. What
// "latency" and "throughput" measure differs per workload; see
// METRICS.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayerMetrics are reported by every traced run; a layer a workload
// does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"gcmodel.successors_ns_per_state", "ns"},
	{"gcmodel.allocs_per_state", "count"},
	{"gcmodel.bytes_per_state", "B"},
	{"gcmodel.fingerprint_ns_per_succ", "ns"},
	{"invariant.ns_per_state", "ns"},
	{"invariant.valid_refs_inv_ns_per_state", "ns"},
	{"invariant.valid_W_inv_ns_per_state", "ns"},
	{"invariant.strong_tricolor_inv_ns_per_state", "ns"},
	{"invariant.weak_tricolor_inv_ns_per_state", "ns"},
	{"invariant.mutator_phase_inv_ns_per_state", "ns"},
	{"invariant.sys_phase_inv_ns_per_state", "ns"},
	{"invariant.gc_W_empty_mut_inv_ns_per_state", "ns"},
	{"invariant.sweep_inv_ns_per_state", "ns"},
	{"invariant.tso_control_inv_ns_per_state", "ns"},
	{"explore.states", "count"},
	{"explore.transitions", "count"},
	{"explore.depth", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.self_ns_per_state", "ns"},
	{"explore.parallel_speedup", "x"},
	{"explore.visited_bytes_per_state", "B"},
	{"liveness.check_s", "s"},
	{"liveness.share", "ratio"},
	{"liveness.graph_states", "count"},
	{"liveness.graph_edges", "count"},
	{"storage.ops", "count"},
	{"storage.bytes_written", "B"},
	{"storage.write_ms", "ms"},
	{"storage.sync_ms", "ms"},
	{"checkpoint.saves", "count"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.settle_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.job_retries", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_p99_ms", "ms"},
	{"gcrt.alloc_ns", "ns"},
	{"gcrt.store_ns", "ns"},
	{"gcrt.safepoint_ns", "ns"},
	{"gcrt.handshake_ns_avg", "ns"},
	{"gcrt.mark_cas_ratio", "ratio"},
	{"gcrt.scanned_per_cycle", "count"},
	{"gcrt.freed_per_cycle", "count"},
	{"gcrt.tlab_refills_per_kop", "count"},
	{"gcrt.barrier_flushes_per_cycle", "count"},
	{"process.gc_cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on untraced runs
	root    int     // the workload span
	dir     string  // scratch data directory inside the checkout
	golden  goldenTable
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	failures          []error
	e2e               map[string]float64
	namedMetrics      []namedMetric
	layer             map[string]float64
	// unitCost is the time one unit of the workload's work took (a
	// verdict, a round, a mutator op); a traced run compares its own
	// against the untraced runs' median to report tracing overhead.
	unitCost float64
}

type namedMetric struct {
	name, unit string
	value      float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(err error) {
	o.failed++
	o.failures = append(o.failures, err)
}

func (o *outcome) setE2E(setup, p50, tail, perSec float64) {
	o.e2e["setup_s"] = setup
	o.e2e["latency_p50_ms"] = p50
	o.e2e["latency_tail_ms"] = tail
	o.e2e["throughput_per_s"] = perSec
}

// named records a metric under the name the workload's documentation
// uses (verdict_s, svc_miss_p50_ms, ...), printed for people to read.
func (o *outcome) named(name string, v float64, unit string) {
	o.namedMetrics = append(o.namedMetrics, namedMetric{name, unit, v})
}

// timeSetup runs f n times and returns each duration.
func timeSetup(n int, f func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t))
	}
	return ds, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 15, "measured time per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-data"), "directory for scratch data, spans and run history")
	list := fs.Bool("list", false, "print the workload names and exit")
	spreadMode := fs.Bool("spread", false, "read the output files given as arguments and print each metric's median and quartile spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spreadMode {
		if err := printSpread(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of -list), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	prov := newProvenance(w.name, *seed, *seconds, *traced == 1)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	// A run must end within three minutes; a program that hangs (a
	// collector waiting on a handshake nobody answers, a job that never
	// settles) fails the run instead.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s: no result after %v\n", w.name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: *out, golden: golden}
	if *traced == 1 {
		e.tr = newTracer()
		e.root = e.tr.begin(0, "workload "+w.name)
	}
	start := time.Now()
	o, steal, err := measure(w, e)
	if err == nil && e.tr == nil && steal > stealLimit && time.Since(start) < runLimit/3 {
		// Neighbours on the host took a large share of the machine:
		// measure once more and keep the cleaner measurement. Failures
		// of both attempts count.
		fmt.Fprintf(stdout, "note: %.1f%% of the machine's CPU time was stolen by the host; measuring again\n", 100*steal)
		var o2 *outcome
		var steal2 float64
		if o2, steal2, err = measure(w, e); err == nil {
			kept := o
			if steal2 < steal {
				kept, steal = o2, steal2
			}
			kept.attempted = o.attempted + o2.attempted
			kept.failed = o.failed + o2.failed
			kept.failures = append(append([]error(nil), o.failures...), o2.failures...)
			o = kept
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	e.tr.end(e.root, nil)
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	history := filepath.Join(*out, "untraced-"+w.name+".txt")
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if e.tr == nil {
		o.e2e["peak_rss_mib"] = rss
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricValue{o.e2e[m.name], m.unit}
		}
		if err := appendHistory(history, o.unitCost); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else {
		if base := median(readHistory(history)); base > 0 {
			o.layer["trace.overhead_ratio"] = o.unitCost / base
		}
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := e.tr.write(spans, prov); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s\n", spans)
	}

	if e.tr == nil {
		o.named("setup_s", o.e2e["setup_s"], "s")
	}
	o.named("peak_rss_mib", rss, "MiB")
	o.named("error_rate", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
	o.named("host_steal_share", steal, "ratio")
	for _, m := range o.namedMetrics {
		fmt.Fprintf(stdout, "metric %-18s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, f := range o.failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	res.Correct = o.failed == 0 && o.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload once and returns what it measured with the
// share of the machine's CPU time the host stole meanwhile.
func measure(w *workloadDef, e *env) (*outcome, float64, error) {
	t := readCPUTicks()
	o, err := w.run(e)
	return o, stealShare(t, readCPUTicks()), err
}

// appendHistory records an untraced run's unit cost, so that a later
// traced run in the same checkout can report its overhead.
func appendHistory(path string, v float64) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readHistory returns the recorded unit costs (none if the file is
// missing or unreadable: the overhead is then not reported).
func readHistory(path string) []float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var out []float64
	for _, l := range strings.Fields(string(data)) {
		if v, err := strconv.ParseFloat(l, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// printSpread reads the result line (the last line) of each benchmark
// output file and prints, per metric, the median and the distance between
// the first and third quartiles as a share of the median — the spread a
// metric's bound in BENCHMARK.json must cover.
func printSpread(w io.Writer, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-spread needs at least two output files")
	}
	values := map[string][]float64{}
	var names []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		if !r.Correct {
			return fmt.Errorf("%s: run was not correct", f)
		}
		for n, m := range r.Metrics {
			if _, ok := values[n]; !ok {
				names = append(names, n)
			}
			values[n] = append(values[n], m.Value)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		vs := values[n]
		q1, q3 := quartiles(vs)
		fmt.Fprintf(w, "%-34s n=%d median=%.6g q1=%.6g q3=%.6g spread=%.4f\n", n, len(vs), median(vs), q1, q3, spread(vs))
	}
	return nil
}
