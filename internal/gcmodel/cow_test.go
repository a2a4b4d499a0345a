package gcmodel_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cimp"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gcmodel"
	"repro/internal/invariant"
)

// The persistence oracle for the system handlers' copy-on-write clones:
// a successor shares the heap, store buffers and Pending of its parent,
// so a handler that wrote a shared part in place would change the parent
// (and every sibling sharing it). Enumerating a state's successors must
// leave the parent's fingerprint, and every successor already yielded,
// byte-identical.

// cowHandlers are the system transitions that write copied structure;
// every one must be exercised by the oracle's runs.
var cowHandlers = []string{
	"sys-write", "sys-alloc", "sys-free", "sys-dequeue-write-buffer",
	"sys-hs-signal", "sys-hs-done",
}

func buildPreset(t testing.TB, name string, sc bool) *gcmodel.Model {
	t.Helper()
	cfg, err := core.PresetConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SCMemory = sc
	m, err := gcmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reachable expands the states reachable from m's initial state breadth
// first with expand, admitting at most limit distinct states, and
// returns them in the order they were found.
func reachable(m *gcmodel.Model, limit int, expand func(gcmodel.SysState) []gcmodel.SysState) []gcmodel.SysState {
	seen := map[string]bool{m.Fingerprint(m.Initial()): true}
	queue := []gcmodel.SysState{m.Initial()}
	for n := 0; n < len(queue); n++ {
		for _, ns := range expand(queue[n]) {
			if fp := m.Fingerprint(ns); len(queue) < limit && !seen[fp] {
				seen[fp] = true
				queue = append(queue, ns)
			}
		}
	}
	return queue
}

// checkPersistent enumerates st's successors and fails if st or an
// already-yielded successor changed meanwhile. It returns the
// successors and records the labels of the events that produced them.
func checkPersistent(t *testing.T, m *gcmodel.Model, st gcmodel.SysState, labels map[string]bool) []gcmodel.SysState {
	t.Helper()
	before := m.AppendFingerprint(nil, st)
	var next []gcmodel.SysState
	var fps [][]byte
	m.Successors(st, func(ns gcmodel.SysState, ev cimp.Event) {
		next = append(next, ns)
		fps = append(fps, m.AppendFingerprint(nil, ns))
		labels[ev.PeerLabel] = true
		labels[ev.Label] = true
	})
	if after := m.AppendFingerprint(nil, st); !bytes.Equal(before, after) {
		t.Fatal("enumerating successors changed the parent state")
	}
	for i, ns := range next {
		if !bytes.Equal(fps[i], m.AppendFingerprint(nil, ns)) {
			t.Fatalf("successor %d changed while later siblings were enumerated", i)
		}
	}
	return next
}

// TestSuccessorsPersistent runs the oracle on every state of capped
// breadth-first runs of alloc, tiny and two-mutator under TSO and SC,
// and along seeded random walks deep enough to reach the sweep (which
// capped breadth-first runs do not).
func TestSuccessorsPersistent(t *testing.T) {
	labels := map[string]bool{}
	for _, name := range []string{"alloc", "tiny", "two-mutator"} {
		for _, sc := range []bool{false, true} {
			m := buildPreset(t, name, sc)
			reachable(m, 3000, func(st gcmodel.SysState) []gcmodel.SysState {
				return checkPersistent(t, m, st, labels)
			})
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				st := m.Initial()
				for i := 0; i < 2000; i++ {
					next := checkPersistent(t, m, st, labels)
					if len(next) == 0 {
						break
					}
					st = next[rng.Intn(len(next))]
				}
			}
		}
	}
	for _, l := range cowHandlers {
		if !labels[l] {
			t.Errorf("handler %s never exercised", l)
		}
	}
}

// TestSuccessorsPersistentConcurrent checks, after a capped alloc run
// with two explore workers, that every visited state still has the
// fingerprint it had when it was first visited. Under -race it also
// makes the detector watch two workers read shared heaps, buffers and
// Pending while they enumerate structurally shared states.
func TestSuccessorsPersistentConcurrent(t *testing.T) {
	m := buildPreset(t, "alloc", false)
	type seenState struct {
		st gcmodel.SysState
		fp []byte
	}
	var mu sync.Mutex
	var visited []seenState
	res := explore.Run(m, invariant.All(), explore.Options{
		MaxStates: 20_000, Workers: 2, HashOnly: true,
		StateCheck: func(st gcmodel.SysState) error {
			fp := m.AppendFingerprint(nil, st)
			mu.Lock()
			visited = append(visited, seenState{st, fp})
			mu.Unlock()
			return nil
		},
	})
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if len(visited) < 10_000 {
		t.Fatalf("only %d states visited", len(visited))
	}
	for i, v := range visited {
		if !bytes.Equal(v.fp, m.AppendFingerprint(nil, v.st)) {
			t.Fatalf("visited state %d changed after it was visited", i)
		}
	}
}

// TestSuccessorsAllocs is the allocation guard of Model.Successors: the
// mean heap allocations per state over a fixed sample of tiny states
// (every tenth of the first 2000 found breadth first) may not exceed the
// ceiling, so a regression in head caching or copy-on-write cannot
// creep back silently.
func TestSuccessorsAllocs(t *testing.T) {
	m := buildPreset(t, "tiny", false)
	states := reachable(m, 2000, func(st gcmodel.SysState) []gcmodel.SysState {
		var next []gcmodel.SysState
		m.Successors(st, func(ns gcmodel.SysState, _ cimp.Event) { next = append(next, ns) })
		return next
	})
	var sample []gcmodel.SysState
	for i := 0; i < len(states); i += 10 {
		sample = append(sample, states[i])
	}
	perState := testing.AllocsPerRun(5, func() {
		for _, st := range sample {
			m.Successors(st, func(gcmodel.SysState, cimp.Event) {})
		}
	}) / float64(len(sample))
	t.Logf("%.1f allocs per state over %d states", perState, len(sample))
	// Measured 34.0 allocs per state with Go 1.24 on linux/amd64 (the
	// engine that recomputed Heads per rendezvous pair and deep-cloned
	// the system state made 203.5). The ceiling leaves about 6 allocs of
	// headroom for toolchain variation.
	const ceiling = 40
	if perState > ceiling {
		t.Fatalf("Model.Successors makes %.1f allocs per state, ceiling %d", perState, ceiling)
	}
}
