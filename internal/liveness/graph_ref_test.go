package liveness

import (
	"reflect"
	"testing"

	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/heap"
)

// smallConfig is a handshake-centric configuration small enough for the
// full liveness check to run in milliseconds: one mutator, stores only,
// tight budget and buffer bound.
func smallConfig() gcmodel.Config {
	return gcmodel.Config{
		NMutators: 1,
		NRefs:     2,
		NFields:   1,
		MaxBuf:    1,
		OpBudget:  1,
		InitObjects: map[heap.Ref][]heap.Ref{
			0: {1},
			1: {heap.NilRef},
		},
		InitRoots:      []heap.RefSet{heap.SetOf(0)},
		AllowNilStore:  true,
		DisableAlloc:   true,
		DisableLoad:    true,
		DisableDiscard: true,
	}
}

// SmallConfig exports smallConfig to package liveness_test.
var SmallConfig = smallConfig

// refBuildGraph is the reference graph builder: a sequential BFS over
// the full relation with its own hash→id map, numbering states in
// discovery order (uncapped; MaxDepth-cut nodes stay unexpanded).
// TestGraphMatchesSequentialBuilder holds the engine-backed builder to
// it array for array. It returns the graph and its transition count.
func refBuildGraph(m *gcmodel.Model, props []Property, ents entities, opt Options) (*graph, int) {
	g := &graph{m: m, ents: ents}
	transitions := 0
	ids := make(map[uint64]int32, 1<<16)
	var states []gcmodel.SysState
	add := func(st gcmodel.SysState, h uint64, parent, eidx, d int32) int32 {
		id := int32(len(g.hash))
		ids[h] = id
		g.hash = append(g.hash, h)
		g.bad = append(g.bad, badMask(m, props, st))
		g.parent = append(g.parent, parent)
		g.peidx = append(g.peidx, eidx)
		g.depth = append(g.depth, d)
		states = append(states, st)
		return id
	}
	init := m.Initial()
	add(init, m.FingerprintHash(init), -1, -1, 0)
	for u := int32(0); int(u) < len(g.hash); u++ {
		g.estart = append(g.estart, int32(len(g.eto)))
		su := states[u]
		states[u] = gcmodel.SysState{}
		if opt.MaxDepth > 0 && int(g.depth[u]) >= opt.MaxDepth {
			g.en = append(g.en, 0)
			continue
		}
		var en uint64
		eidx := int32(-1)
		m.Successors(su, func(ns gcmodel.SysState, ev cimp.Event) {
			eidx++
			transitions++
			tk := g.takenMask(su, ev, ns)
			en |= tk
			h := m.FingerprintHash(ns)
			vid, ok := ids[h]
			if !ok {
				vid = add(ns, h, u, eidx, g.depth[u]+1)
			}
			g.eto = append(g.eto, vid)
			g.etaken = append(g.etaken, tk)
			g.eeidx = append(g.eeidx, eidx)
		})
		g.en = append(g.en, en)
	}
	g.estart = append(g.estart, int32(len(g.eto)))
	return g, transitions
}

// TestGraphMatchesSequentialBuilder checks that the graph built from
// explore's reports is the sequential builder's graph exactly — same
// node ids, parents, depths, masks and CSR edge order — at every worker
// count, so SCCs and lassos cannot depend on scheduling.
func TestGraphMatchesSequentialBuilder(t *testing.T) {
	muted := smallConfig()
	muted.MuteHandshake = true
	nodeq := smallConfig()
	nodeq.NoDequeue = true
	for _, c := range []struct {
		name string
		cfg  gcmodel.Config
	}{{"small", smallConfig()}, {"mute-handshake", muted}, {"no-dequeue", nodeq}} {
		m, err := gcmodel.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		props := All(m)
		ents := entities{nmut: m.Cfg.NMutators}
		for _, maxDepth := range []int{0, 8} {
			want, wantTr := refBuildGraph(m, props, ents, Options{MaxDepth: maxDepth})
			for _, workers := range []int{1, 2, 4} {
				got, run := buildGraph(m, props, ents, Options{MaxDepth: maxDepth, Workers: workers})
				if run.Transitions != wantTr {
					t.Errorf("%s depth<=%d workers=%d: %d transitions, reference %d",
						c.name, maxDepth, workers, run.Transitions, wantTr)
				}
				for _, a := range []struct {
					name      string
					got, want any
				}{
					{"hash", got.hash, want.hash},
					{"parent", got.parent, want.parent},
					{"peidx", got.peidx, want.peidx},
					{"depth", got.depth, want.depth},
					{"bad", got.bad, want.bad},
					{"en", got.en, want.en},
					{"estart", got.estart, want.estart},
					{"eto", got.eto, want.eto},
					{"etaken", got.etaken, want.etaken},
					{"eeidx", got.eeidx, want.eeidx},
				} {
					if !reflect.DeepEqual(a.got, a.want) {
						t.Errorf("%s depth<=%d workers=%d: %s differs from the sequential builder",
							c.name, maxDepth, workers, a.name)
					}
				}
			}
		}
	}
}
