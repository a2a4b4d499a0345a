package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

func TestServiceSequenceDeterministic(t *testing.T) {
	n := len(servicePool())
	a, b := serviceSequence(7, n), serviceSequence(7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different submission sequences")
	}
	if reflect.DeepEqual(a, serviceSequence(8, n)) {
		t.Error("different seeds gave the same sequence")
	}
	for _, seed := range []int64{1, 7, 8, 12345} {
		seq := serviceSequence(seed, n)
		first := map[int]int{}
		hits, lastMiss := 0, -1
		for i, s := range seq {
			if !s.Hit {
				if _, dup := first[s.Spec]; dup {
					t.Fatalf("seed %d: spec %d submitted as a miss twice", seed, s.Spec)
				}
				first[s.Spec], lastMiss = i, i
				continue
			}
			hits++
			// The repeat goes out alongside the preceding miss, so its
			// spec must have been submitted (and settled) before that.
			if j, ok := first[s.Spec]; !ok || j >= lastMiss {
				t.Fatalf("seed %d: hit on spec %d at %d does not follow a settled miss", seed, s.Spec, i)
			}
		}
		want := 0
		for k := 1; k < n; k++ {
			want += min(k, hitsPerSpec)
		}
		if len(first) != n || hits != want || want < 1000 {
			t.Errorf("seed %d: %d misses and %d hits, want %d and %d (at least 1000)", seed, len(first), hits, n, want)
		}
	}
}

// recordingFS is a fake storage.FS that records each call and returns
// canned results, so the test can see what timingFS passes through.
type recordingFS struct {
	calls []string
	err   error
	file  storage.File
	ents  []fs.DirEntry
	info  fs.FileInfo
}

func (r *recordingFS) Open(name string) (storage.File, error) {
	r.calls = append(r.calls, "Open "+name)
	return r.file, r.err
}
func (r *recordingFS) Create(name string) (storage.File, error) {
	r.calls = append(r.calls, "Create "+name)
	return r.file, r.err
}
func (r *recordingFS) Rename(a, b string) error {
	r.calls = append(r.calls, "Rename "+a+" "+b)
	return r.err
}
func (r *recordingFS) Remove(name string) error {
	r.calls = append(r.calls, "Remove "+name)
	return r.err
}
func (r *recordingFS) MkdirAll(p string) error {
	r.calls = append(r.calls, "MkdirAll "+p)
	return r.err
}
func (r *recordingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	r.calls = append(r.calls, "ReadDir "+name)
	return r.ents, r.err
}
func (r *recordingFS) Stat(name string) (fs.FileInfo, error) {
	r.calls = append(r.calls, "Stat "+name)
	return r.info, r.err
}

func TestTimingFSPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	inner := &recordingFS{err: boom}
	tfs := &timingFS{inner: inner}
	if _, err := tfs.Open("a"); err != boom {
		t.Errorf("Open error %v", err)
	}
	if _, err := tfs.Create("b"); err != boom {
		t.Errorf("Create error %v", err)
	}
	if err := tfs.Rename("c", "d"); err != boom {
		t.Errorf("Rename error %v", err)
	}
	if err := tfs.Remove("e"); err != boom {
		t.Errorf("Remove error %v", err)
	}
	if err := tfs.MkdirAll("f"); err != boom {
		t.Errorf("MkdirAll error %v", err)
	}
	if _, err := tfs.ReadDir("g"); err != boom {
		t.Errorf("ReadDir error %v", err)
	}
	if _, err := tfs.Stat("h"); err != boom {
		t.Errorf("Stat error %v", err)
	}
	want := []string{"Open a", "Create b", "Rename c d", "Remove e", "MkdirAll f", "ReadDir g", "Stat h"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner saw %v, want %v", inner.calls, want)
	}
	if got := tfs.ops.Load(); got != 7 {
		t.Errorf("ops = %d, want 7", got)
	}

	// Against the real filesystem every result, file contents included,
	// is the same through the wrapper.
	dir := t.TempDir()
	tfs = &timingFS{inner: storage.OSFS{}}
	p := filepath.Join(dir, "sub", "f.tmp")
	if err := tfs.MkdirAll(filepath.Dir(p)); err != nil {
		t.Fatal(err)
	}
	f, err := tfs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != p {
		t.Errorf("Name = %q, want %q", f.Name(), p)
	}
	if n, err := f.Write([]byte("hello ")); n != 6 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, err := f.WriteAt([]byte("world"), 6); n != 5 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "sub", "f")
	if err := tfs.Rename(p, final); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadFile(tfs, final)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	buf := make([]byte, 5)
	g, err := tfs.Open(final)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.ReadAt(buf, 6); n != 5 || err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
	g.Close()
	st, err := tfs.Stat(final)
	if err != nil || st.Size() != 11 {
		t.Fatalf("Stat = %v, %v", st, err)
	}
	ents, err := tfs.ReadDir(filepath.Dir(final))
	if err != nil || len(ents) != 1 || ents[0].Name() != "f" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := tfs.Remove(final); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("Remove did not remove: %v", err)
	}
	if _, err := tfs.Open(final); !os.IsNotExist(err) {
		t.Fatalf("Open of a removed file: %v", err)
	}
	if b := tfs.bytes.Load(); b != 11 {
		t.Errorf("bytes written = %d, want 11", b)
	}
	if tfs.writeNs.Load() <= 0 || tfs.syncNs.Load() <= 0 {
		t.Errorf("write %v / sync %v time not measured", time.Duration(tfs.writeNs.Load()), time.Duration(tfs.syncNs.Load()))
	}
}

// TestServiceRound runs one round over a few quick corpus cells: every
// miss runs, every repeat is a cache hit, every verdict matches the
// golden table. Under -race it also checks the two clients' sharing.
func TestServiceRound(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{dir: t.TempDir(), golden: g, tr: newTracer()}
	var pool []core.JobSpec
	for _, s := range servicePool() {
		if s.Options.MaxDepth == serviceDepths[0] && len(pool) < 10 {
			pool = append(pool, s)
		}
	}
	seq := serviceSequence(3, len(pool))
	svc, _, err := openService(e, &timingFS{inner: storage.OSFS{}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := svc.round(e, 0, pool, seq)
	if err := svc.close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range r.failures {
		t.Error(f)
	}
	if len(r.miss) != len(pool) || len(r.hit) != len(seq)-len(pool) || r.attempted != len(seq) {
		t.Errorf("%d misses, %d hits of %d submissions; want %d, %d", len(r.miss), len(r.hit), r.attempted, len(pool), len(seq)-len(pool))
	}
}
