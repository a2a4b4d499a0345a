package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
)

// servicePresets, serviceAblations and serviceDepths span the corpus
// cells the service workload submits. They are spelled out here rather
// than taken from the program so that the workload cannot change under
// a later commit.
var (
	servicePresets   = []string{"alloc", "chain", "tiny", "two-mutator", "two-mutator-loads", "two-sym"}
	serviceAblations = []core.Ablations{
		{},
		{NoDeletionBarrier: true},
		{NoInsertionBarrier: true},
		{AllocWhite: true},
		{UnlockedMark: true},
		{NoHSFence: true},
	}
	// Depth-capped so that the counts do not depend on the worker count.
	serviceDepths = []int{10, 16}
	// The TSO hunts: uncapped runs that stop at their first violation.
	huntAblations = []core.Ablations{
		{NoDeletionBarrier: true},
		{NoInsertionBarrier: true},
		{UnlockedMark: true},
		{NoHSFence: true},
	}
)

// serviceJobWorkers is the checker worker count of every submitted job:
// one, so that a running job and the client sending repeats each have a
// CPU of a 2-CPU machine and do not contend.
const serviceJobWorkers = 1

// hitsPerSpec is the number of repeat submissions of each spec: one in
// each of the hitsPerSpec groups that follow its miss. A round then has
// 1,008 cache hits, enough for a 99th percentile with ten samples beyond
// it.
const hitsPerSpec = 7

// serviceSetupReps engines are opened and closed before the first round,
// so that set-up time has several samples even in a one-round run (each
// round adds one more).
const serviceSetupReps = 15

// servicePool lists every spec the workload submits: the corpus cells
// (preset x ablation x {TSO, SC} x depth cap) and the four TSO hunts.
func servicePool() []core.JobSpec {
	var pool []core.JobSpec
	for _, preset := range servicePresets {
		for _, abl := range serviceAblations {
			for _, sc := range []bool{false, true} {
				for _, d := range serviceDepths {
					a := abl
					a.SCMemory = sc
					pool = append(pool, core.JobSpec{Preset: preset, Ablations: a, Options: core.JobOptions{MaxDepth: d, Workers: serviceJobWorkers}})
				}
			}
		}
	}
	for _, a := range huntAblations {
		pool = append(pool, core.JobSpec{Preset: "tiny", Ablations: a, Options: core.JobOptions{Workers: serviceJobWorkers}})
	}
	return pool
}

// submission is one entry of the seeded sequence: the index of a pool
// spec, and whether it repeats an earlier submission (a cache hit).
type submission struct {
	Spec int
	Hit  bool
}

// serviceSequence is the seeded submission order for a pool of n specs:
// every spec once as a miss, in a seeded order, each miss followed by one
// repeat of each of the hitsPerSpec specs submitted just before it, in a
// seeded order. Every spec but the last few is repeated exactly
// hitsPerSpec times, so the seed changes the order but neither the
// hit/miss split nor how often a spec with a large verdict is served
// from the cache.
func serviceSequence(seed int64, n int) []submission {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	var seq []submission
	for k, spec := range order {
		seq = append(seq, submission{Spec: spec})
		prev := order[max(0, k-hitsPerSpec):k]
		for _, i := range rng.Perm(len(prev)) {
			seq = append(seq, submission{Spec: prev[i], Hit: true})
		}
	}
	return seq
}

// serviceRound is what one pass over the sequence measured.
type serviceRound struct {
	wall                   time.Duration
	miss, hit              []time.Duration
	queueWait, run, settle []time.Duration
	attempted              int
	failures               []error
	checkpoints            int
	cacheHits, cacheMisses int64
	jobRetries             int64
}

// runService drives an in-process server.Engine behind httptest with two
// closed-loop clients. Each round opens a fresh engine in a fresh data
// directory and submits the whole seeded sequence; rounds repeat while
// another one fits in the run's time budget.
func runService(e *env) (*outcome, error) {
	o := newOutcome()
	pool := servicePool()
	for _, s := range pool {
		if _, ok := e.golden[specKey(s)]; !ok {
			return nil, fmt.Errorf("service pool spec %s has no golden answer", specName(s))
		}
	}
	seq := serviceSequence(e.seed, len(pool))

	var setup []time.Duration
	for i := 0; i < serviceSetupReps; i++ {
		svc, d, err := openService(e, nil, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
		if err := svc.close(); err != nil {
			return nil, err
		}
	}

	// Traced runs route the rounds' disk I/O through the timing wrapper.
	var fsys *timingFS
	if e.tr != nil {
		fsys = &timingFS{inner: storage.OSFS{}}
	}
	var rounds []serviceRound
	runtime.GC() // collect the set-up engines now, not during the measurement
	mem0 := readMem()
	start := time.Now()
	for i := 0; ; i++ {
		svc, d, err := openService(e, fsys, fmt.Sprintf("round-%d", i))
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
		sp := e.tr.begin(e.root, fmt.Sprintf("round %d", i))
		r := svc.round(e, sp, pool, seq)
		m := svc.engine.Metrics()
		r.cacheHits, r.cacheMisses, r.jobRetries = m.CacheHits, m.CacheMisses, m.JobRetries
		e.tr.end(sp, map[string]int64{"misses": int64(len(r.miss)), "hits": int64(len(r.hit))})
		if err := svc.close(); err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		if time.Since(start)+r.wall > e.seconds {
			break
		}
	}

	mem1 := readMem()
	var all serviceRound
	for _, r := range rounds {
		all.wall += r.wall
		all.miss = append(all.miss, r.miss...)
		all.hit = append(all.hit, r.hit...)
		all.queueWait = append(all.queueWait, r.queueWait...)
		all.run = append(all.run, r.run...)
		all.settle = append(all.settle, r.settle...)
		all.checkpoints += r.checkpoints
		all.cacheHits += r.cacheHits
		all.cacheMisses += r.cacheMisses
		all.jobRetries += r.jobRetries
		o.attempted += r.attempted
		for _, f := range r.failures {
			o.fail(f)
		}
	}
	settled := float64(len(all.miss) + len(all.hit))
	missMS, hitMS := ms(all.miss), ms(all.hit)
	o.setE2E(median(secs(setup)), percentile(missMS, 50), percentile(missMS, 90), settled/all.wall.Seconds())
	o.named("svc_miss_p50_ms", percentile(missMS, 50), "ms")
	o.named("svc_miss_p90_ms", percentile(missMS, 90), "ms")
	o.named("svc_hit_p50_ms", percentile(hitMS, 50), "ms")
	o.named("svc_hit_p99_ms", percentile(hitMS, 99), "ms")
	o.named("svc_jobs_per_s", settled/all.wall.Seconds(), "1/s")
	o.named("svc_misses", float64(len(all.miss)), "count")
	o.named("svc_hits", float64(len(all.hit)), "count")
	o.unitCost = all.wall.Seconds() / float64(len(rounds))

	if e.tr != nil {
		L := o.layer
		L["storage.ops"] = float64(fsys.ops.Load())
		L["storage.bytes_written"] = float64(fsys.bytes.Load())
		L["storage.write_ms"] = float64(fsys.writeNs.Load()) / 1e6
		L["storage.sync_ms"] = float64(fsys.syncNs.Load()) / 1e6
		L["checkpoint.saves"] = float64(all.checkpoints)
		L["server.queue_wait_ms_p50"] = percentile(ms(all.queueWait), 50)
		L["server.run_ms_p50"] = percentile(ms(all.run), 50)
		L["server.settle_ms_p50"] = percentile(ms(all.settle), 50)
		if n := all.cacheHits + all.cacheMisses; n > 0 {
			L["server.cache_hit_ratio"] = float64(all.cacheHits) / float64(n)
		}
		L["server.job_retries"] = float64(all.jobRetries)
		L["server.hit_p50_ms"] = percentile(hitMS, 50)
		L["server.hit_p99_ms"] = percentile(hitMS, 99)
		L["process.gc_cpu_share"] = gcShare(mem0, mem1)

		// The checker layers under the service: replay and re-run every
		// submitted spec outside the service.
		var p probe
		for _, s := range pool {
			if err := p.add(e, s, false); err != nil {
				return nil, err
			}
		}
		for _, f := range p.failures {
			o.fail(f)
		}
		p.layerMetrics(o)
	}
	return o, nil
}

// service is one open engine behind an httptest server.
type service struct {
	dir    string
	engine *server.Engine
	http   *httptest.Server
	client [2]*server.Client
}

// openService opens a fresh engine and returns it with its set-up time:
// engine open (which loads the verdict cache), the HTTP listener, and
// the first health check answered.
func openService(e *env, fsys *timingFS, name string) (*service, time.Duration, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("svc-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	opt := server.Options{DataDir: dir}
	if fsys != nil {
		opt.FS = fsys
	}
	t := time.Now()
	eng, err := server.New(opt)
	if err != nil {
		return nil, 0, fmt.Errorf("open engine: %w", err)
	}
	s := &service{dir: dir, engine: eng, http: httptest.NewServer(eng.Handler())}
	for i := range s.client {
		s.client[i] = server.NewClient(s.http.URL)
	}
	if _, err := s.client[0].Health(context.Background()); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("health: %w", err)
	}
	return s, time.Since(t), nil
}

func (s *service) close() error {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.engine.Shutdown(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// round submits seq with two closed-loop clients: one sends the misses
// in sequence order, the other the repeats. The repeats that follow a
// miss in seq are sent once that miss has been submitted, so each miss
// runs alongside the same cache traffic whatever order the seed picks;
// and since misses are sent one at a time, every repeat's spec has
// settled by then, so each repeat is a cache hit and none is coalesced
// with a running job.
func (s *service) round(e *env, parent int, pool []core.JobSpec, seq []submission) serviceRound {
	submitted := make([]chan struct{}, len(pool))
	settled := make([]chan struct{}, len(pool))
	for i := range settled {
		submitted[i] = make(chan struct{})
		settled[i] = make(chan struct{})
	}
	var (
		mu sync.Mutex
		r  serviceRound
	)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c, hits := range []bool{false, true} {
		cl := s.client[c]
		wg.Add(1)
		go func(hits bool) {
			defer wg.Done()
			lastMiss := -1
			for _, sub := range seq {
				if !sub.Hit {
					lastMiss = sub.Spec
				}
				if sub.Hit != hits {
					continue
				}
				spec := pool[sub.Spec]
				if sub.Hit {
					<-submitted[lastMiss]
					<-settled[sub.Spec]
				}
				sp := e.tr.begin(parent, "job "+specName(spec))
				t := time.Now()
				var once func()
				if !sub.Hit {
					once = func() { close(submitted[sub.Spec]) }
				}
				info, lat, err := submit(ctx, cl, spec, sub.Hit, once)
				seen := t.Add(lat)
				if !sub.Hit {
					close(settled[sub.Spec])
				}
				if err == nil {
					err = e.golden.check(spec, answerFromRecord(info.Verdict))
				}
				e.tr.end(sp, map[string]int64{"hit": b2i(sub.Hit), "failed": b2i(err != nil)})
				mu.Lock()
				r.attempted++
				switch {
				case err != nil:
					r.failures = append(r.failures, err)
				case sub.Hit:
					r.hit = append(r.hit, lat)
				default:
					r.miss = append(r.miss, lat)
					r.checkpoints += info.Verdict.Checkpoints
					if info.Started != nil && info.Finished != nil {
						r.queueWait = append(r.queueWait, info.Started.Sub(info.Submitted))
						r.run = append(r.run, info.Finished.Sub(*info.Started))
						r.settle = append(r.settle, seen.Sub(*info.Finished))
					}
				}
				mu.Unlock()
			}
		}(hits)
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// submit sends one spec and waits for its verdict, calling submitted (if
// not nil) once the submission has been answered. A miss must run (not be
// served from the cache) and a hit must be served from it.
func submit(ctx context.Context, cl *server.Client, spec core.JobSpec, hit bool, submitted func()) (server.JobInfo, time.Duration, error) {
	t := time.Now()
	info, err := cl.Submit(ctx, spec, 0)
	if submitted != nil {
		submitted()
	}
	if err != nil {
		return info, 0, fmt.Errorf("%s: submit: %w", specName(spec), err)
	}
	if !info.State.Terminal() {
		if info, err = cl.Stream(ctx, info.ID, nil); err != nil {
			return info, 0, fmt.Errorf("%s: stream: %w", specName(spec), err)
		}
	}
	lat := time.Since(t)
	switch {
	case info.State != core.JobDone:
		return info, 0, fmt.Errorf("%s: job %s ended %s: %s", specName(spec), info.ID, info.State, info.Error)
	case info.Verdict == nil:
		return info, 0, fmt.Errorf("%s: job %s has no verdict", specName(spec), info.ID)
	case info.Cached != hit:
		return info, 0, fmt.Errorf("%s: job %s cached=%v, want %v", specName(spec), info.ID, info.Cached, hit)
	}
	return info, lat, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// timingFS passes every call through to inner, counting operations and
// bytes written and timing writes and syncs. It plugs in through
// server.Options.FS.
type timingFS struct {
	inner                       storage.FS
	ops, bytes, writeNs, syncNs atomic.Int64
}

func (t *timingFS) Open(name string) (storage.File, error) {
	t.ops.Add(1)
	f, err := t.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timingFS) Create(name string) (storage.File, error) {
	t.ops.Add(1)
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	t.ops.Add(1)
	return t.inner.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(name string) error {
	t.ops.Add(1)
	return t.inner.Remove(name)
}

func (t *timingFS) MkdirAll(path string) error {
	t.ops.Add(1)
	return t.inner.MkdirAll(path)
}

func (t *timingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	t.ops.Add(1)
	return t.inner.ReadDir(name)
}

func (t *timingFS) Stat(name string) (fs.FileInfo, error) {
	t.ops.Add(1)
	return t.inner.Stat(name)
}

// timedFile is the File half of timingFS.
type timedFile struct {
	storage.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.writeNs.Add(int64(time.Since(t)))
	f.fs.ops.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.fs.writeNs.Add(int64(time.Since(t)))
	f.fs.ops.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.syncNs.Add(int64(time.Since(t)))
	f.fs.ops.Add(1)
	return err
}
