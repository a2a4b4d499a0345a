package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gcrt"
	"repro/internal/gcrt/workload"
)

// Churn sizing. The live tree is large enough that mark and sweep, not
// handshake scheduling, set the cycle time (about 6 ms per cycle on a
// 2-CPU x86 box, so a 15 s run has well over a thousand cycles for the
// 99th percentile); the arena leaves room for the garbage a mutator
// allocates between two sweeps.
const (
	churnLive      = 1 << 16
	churnSlots     = 1 << 18
	churnFields    = 2
	churnStreamLen = 1 << 16
	churnSafePoint = 4  // ops between safe points, as gcrt/workload's default
	churnSample    = 64 // traced runs time every churnSample-th call
	churnSetupReps = 9
)

// runChurn runs a gcrt.Runtime with nproc-1 mutator goroutines executing
// seeded gcrt/workload Churn op streams over a large live tree while the
// calling goroutine runs Collect back to back. It checks that no arena
// access faulted and that the final Audit finds nothing.
func runChurn(e *env) (*outcome, error) {
	o := newOutcome()
	nmut := runtime.NumCPU() - 1
	if nmut < 1 {
		nmut = 1
	}
	var setup []time.Duration
	var rt *gcrt.Runtime
	for i := 0; i < churnSetupReps; i++ {
		// Collect the previous arena first, so that neither the peak RSS
		// nor the set-up time depends on when the Go GC happens to run.
		rt = nil
		runtime.GC()
		t := time.Now()
		rt = newChurnRuntime(nmut)
		setup = append(setup, time.Since(t))
	}
	mem0 := readMem()
	stats0 := rt.Stats()

	cfg := workload.Config{Shape: workload.Churn, Seed: e.seed, Fields: churnFields, Mutators: nmut}
	var stop atomic.Bool
	var wg sync.WaitGroup
	muts := make([]*churnMutator, nmut)
	for i := range muts {
		muts[i] = &churnMutator{m: rt.Mutator(i), ops: workload.Ops(cfg, i, churnStreamLen), traced: e.tr != nil}
		wg.Add(1)
		go func(cm *churnMutator) {
			defer wg.Done()
			cm.run(&stop)
		}(muts[i])
	}

	var cycles []time.Duration
	start := time.Now()
	for time.Since(start) < e.seconds {
		sp := e.tr.begin(e.root, "cycle")
		t := time.Now()
		freed := rt.Collect()
		cycles = append(cycles, time.Since(t))
		e.tr.end(sp, map[string]int64{"freed": int64(freed)})
	}
	wall := time.Since(start)
	stop.Store(true)
	wg.Wait()
	mem1 := readMem()
	stats := rt.Stats()

	o.attempted = len(cycles)
	if f := rt.Arena().Faults.Load(); f != 0 {
		o.fail(fmt.Errorf("gcrt-churn: %d arena faults (lost objects)", f))
	}
	if n := rt.Audit(); n != 0 {
		o.fail(fmt.Errorf("gcrt-churn: audit found %d violations: %v", n, rt.Oracle().Findings()))
	}

	var ops int64
	for _, cm := range muts {
		ops += cm.done
	}
	cyc := ms(cycles)
	o.setE2E(median(secs(setup)), percentile(cyc, 50), percentile(cyc, 90), float64(ops)/wall.Seconds())
	o.named("rt_mut_ops_per_s", float64(ops)/wall.Seconds(), "1/s")
	o.named("rt_cycle_p50_ms", percentile(cyc, 50), "ms")
	o.named("rt_cycle_p90_ms", percentile(cyc, 90), "ms")
	o.named("rt_cycle_p99_ms", percentile(cyc, 99), "ms")
	o.named("rt_cycles", float64(len(cycles)), "count")
	o.unitCost = wall.Seconds() / float64(ops)

	if e.tr != nil {
		L := o.layer
		var alloc, store, safe sampled
		for _, cm := range muts {
			alloc.merge(cm.alloc)
			store.merge(cm.store)
			safe.merge(cm.safe)
		}
		L["gcrt.alloc_ns"] = alloc.mean()
		L["gcrt.store_ns"] = store.mean()
		L["gcrt.safepoint_ns"] = safe.mean()
		d := statsDelta(stats0, stats)
		ncyc := float64(d.Cycles)
		if d.Handshakes > 0 {
			L["gcrt.handshake_ns_avg"] = float64(d.HandshakeTime) / float64(d.Handshakes)
		}
		if n := d.MarkFast + d.MarkCAS; n > 0 {
			L["gcrt.mark_cas_ratio"] = float64(d.MarkCAS) / float64(n)
		}
		if ncyc > 0 {
			L["gcrt.scanned_per_cycle"] = float64(d.Scanned) / ncyc
			L["gcrt.freed_per_cycle"] = float64(d.Freed) / ncyc
			L["gcrt.barrier_flushes_per_cycle"] = float64(d.BarrierFlushes) / ncyc
		}
		if ops > 0 {
			L["gcrt.tlab_refills_per_kop"] = float64(d.TLABRefills) / (float64(ops) / 1000)
		}
		L["process.gc_cpu_share"] = gcShare(mem0, mem1)
	}
	return o, nil
}

// newChurnRuntime builds the runtime with the oracle attached and a
// complete binary tree of churnLive objects held by mutator 0's root 0,
// which the op streams never touch.
func newChurnRuntime(nmut int) *gcrt.Runtime {
	rt := gcrt.New(gcrt.Options{Slots: churnSlots, Fields: churnFields, Mutators: nmut})
	// Sparse store sampling keeps the oracle's cost off the mutator's
	// fast path; the final Audit still checks the whole arena.
	rt.EnableOracle(gcrt.OracleOptions{SampleEvery: 1024})
	m := rt.Mutator(0)
	for i := 0; i < churnLive; i++ {
		if m.Alloc() < 0 {
			panic("gcrt-churn: arena too small for the live tree") // sizing constants are wrong
		}
		if i > 0 {
			m.Store((i-1)/2, (i-1)%2, i)
		}
	}
	for i := churnLive - 1; i > 0; i-- {
		m.Discard(i)
	}
	return rt
}

// statsDelta subtracts the counters a set-up build left behind.
func statsDelta(a, b gcrt.StatsSnapshot) gcrt.StatsSnapshot {
	return gcrt.StatsSnapshot{
		Cycles:         b.Cycles - a.Cycles,
		Freed:          b.Freed - a.Freed,
		Scanned:        b.Scanned - a.Scanned,
		MarkFast:       b.MarkFast - a.MarkFast,
		MarkCAS:        b.MarkCAS - a.MarkCAS,
		Handshakes:     b.Handshakes - a.Handshakes,
		HandshakeTime:  b.HandshakeTime - a.HandshakeTime,
		TLABRefills:    b.TLABRefills - a.TLABRefills,
		BarrierFlushes: b.BarrierFlushes - a.BarrierFlushes,
	}
}

// churnMutator interprets a gcrt/workload op stream on one mutator,
// repeating it until stopped. Registers hold root indexes (-1 = empty);
// Discard moves the last root into the vacated slot, so a drop patches
// whichever register held the last root. Root 0 (the live tree) is never
// held by a register.
type churnMutator struct {
	m      *gcrt.Mutator
	ops    []workload.Op
	reg    [8]int
	traced bool
	done   int64 // ops executed, written by the mutator goroutine only

	alloc, store, safe sampled
}

func (c *churnMutator) run(stop *atomic.Bool) {
	for i := range c.reg {
		c.reg[i] = -1
	}
	n := 0
	for !stop.Load() {
		for _, op := range c.ops {
			c.exec(op, n)
			n++
			if n%churnSafePoint == 0 {
				if c.traced && n%(churnSafePoint*churnSample) == 0 {
					t := time.Now()
					c.m.SafePoint()
					c.safe.add(time.Since(t))
				} else {
					c.m.SafePoint()
				}
			}
		}
	}
	c.done = int64(n)
	c.m.Park()
}

func (c *churnMutator) exec(op workload.Op, n int) {
	m := c.m
	timed := c.traced && n%churnSample == 0
	switch op.Kind {
	case workload.OpAlloc:
		var t time.Time
		if timed {
			t = time.Now()
		}
		ri := m.Alloc()
		if timed {
			c.alloc.add(time.Since(t))
		}
		if ri < 0 {
			// Allocation stall: keep the old root and let the collector
			// reach its sweep.
			m.SafePoint()
			runtime.Gosched()
			return
		}
		c.replace(op.A, ri)
	case workload.OpLink, workload.OpUnlink:
		if c.reg[op.A] < 0 {
			return
		}
		dst := -1
		if op.Kind == workload.OpLink {
			if dst = c.reg[op.B]; dst < 0 {
				return
			}
		}
		var t time.Time
		if timed {
			t = time.Now()
		}
		m.Store(c.reg[op.A], op.F, dst)
		if timed {
			c.store.add(time.Since(t))
		}
	case workload.OpLoad:
		if c.reg[op.A] < 0 {
			return
		}
		if ri := m.Load(c.reg[op.A], op.F); ri >= 0 {
			c.replace(op.B, ri)
		}
	case workload.OpCopy:
		if c.reg[op.A] < 0 || op.A == op.B {
			return
		}
		c.drop(op.B)
		c.reg[op.B] = m.AdoptRoot(m.Root(c.reg[op.A]))
	case workload.OpDrop:
		c.drop(op.A)
	}
}

// replace binds register r to the new last root ri, dropping r's old
// root (which moves ri into the old root's slot).
func (c *churnMutator) replace(r, ri int) {
	if old := c.reg[r]; old >= 0 {
		c.reg[r] = -1
		c.m.Discard(old)
		c.reg[r] = old
		return
	}
	c.reg[r] = ri
}

func (c *churnMutator) drop(r int) {
	ri := c.reg[r]
	if ri < 0 {
		return
	}
	last := c.m.NumRoots() - 1
	c.m.Discard(ri)
	c.reg[r] = -1
	if ri != last {
		for j := range c.reg {
			if c.reg[j] == last {
				c.reg[j] = ri
			}
		}
	}
}

// sampled accumulates timed calls.
type sampled struct {
	n     int64
	total time.Duration
}

func (s *sampled) add(d time.Duration) { s.n++; s.total += d }
func (s *sampled) merge(o sampled)     { s.n += o.n; s.total += o.total }
func (s sampled) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}
