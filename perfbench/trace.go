package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/buildinfo"
)

// span is one traced interval: a workload, a run, a job, a checker pass
// or a BFS layer. Per-state work is never a span of its own; it is
// summed into the Counts of the span whose boundary it ran inside.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartMS float64          `json:"start_ms"`
	EndMS   float64          `json:"end_ms"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartMS: t.since()})
	return id
}

// end closes span id, attaching the counters aggregated inside it.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndMS = t.since()
	s.Counts = counts
}

func (t *tracer) since() float64 {
	return float64(time.Since(t.t0)) / float64(time.Millisecond)
}

// write stores every span as one JSON document: the provenance block
// first, then the spans in opening order.
func (t *tracer) write(path string, prov provenance) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memStats reads the allocation and GC CPU counters from runtime/metrics.
// Small-object allocation counts are published when an allocation span
// is retired, so deltas are exact only over many allocations.
type memStats struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMem() memStats {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return memStats{
		allocs:   uint64(num(s[0].Value)),
		bytes:    uint64(num(s[1].Value)),
		gcCPU:    num(s[2].Value),
		totalCPU: num(s[3].Value),
	}
}

// gcShare is the share of the process's CPU time spent in the Go
// garbage collector between two samples.
func gcShare(a, b memStats) float64 {
	total := b.totalCPU - a.totalCPU
	if total <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / total
}

// cpuTicks is the machine-wide CPU time split from /proc/stat: time the
// hypervisor ran other guests on this machine's virtual CPUs (steal) and
// all time. Both are zero where /proc/stat does not exist.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user..steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the machine's CPU time stolen by the
// hypervisor between two readings.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) / 1024, nil
}

// provenance identifies the machine, toolchain, build and inputs of a
// result, so a later claim can be rechecked on the same footing.
type provenance struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	DefaultSeed int64  `json:"default_seed"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Build       string `json:"build"`
	CPU         string `json:"cpu"`
	Date        string `json:"date"`
}

func newProvenance(workload string, seed int64, seconds int, traced bool) provenance {
	return provenance{
		Workload:    workload,
		Seed:        seed,
		DefaultSeed: defaultSeed,
		Seconds:     seconds,
		Traced:      traced,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Build:       buildinfo.String(),
		CPU:         cpuModel(),
		Date:        time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
