package explore

// The disk-spill degradation rung: when the memory watchdog reaches
// its 85% rung and Options.SpillDir is set, the explorer moves its
// bulk state to disk instead of (eventually) stopping at the 100%
// rung. Two things spill, both as CRC-framed sections reusing the
// checkpoint file encoding:
//
//   - Visited-set records: each shard's (hash → parent,eidx) map is
//     flushed to visited.spill and replaced by a membership-only key
//     set (8 bytes/state instead of 24) plus a small "hot" buffer of
//     records inserted since the last flush. Records are only kept at
//     all when Options.Trace needs them for counterexample replay.
//   - Frontier layers: at each layer boundary the freshly built next
//     layer's states are encoded into frontier-NNNNNN.spill with a
//     per-entry offset table, and the decoded states are dropped from
//     memory. Workers re-read and decode their claimed chunk ranges
//     with one ReadAt per chunk, so at most one layer's decoded states
//     (the one being built) are resident instead of two.
//
// Spilling is verdict-neutral — it changes the representation of the
// search state, never which states are visited or checked — so
// SpillDir and FS are deliberately excluded from OptionsFingerprint.
// Periodic checkpointing is suspended while spilled (the record maps
// a snapshot needs are on disk); an interrupted spilled run restarts
// from its last pre-spill checkpoint or from scratch.
//
// Any spill I/O failure is loud: the run stops at the next boundary
// with Result.Stopped == StopSpill and a named error in Result.Err.
// Completing on a disk that lies is not an option.

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cimp"
	"repro/internal/gcmodel"
	"repro/internal/storage"
)

// SpillStats counts the disk-spill rung's work; zero unless the rung
// fired (Active).
type SpillStats struct {
	// Active reports that the spill rung activated.
	Active bool
	// Layers is the number of frontier layers parked to disk.
	Layers int
	// Flushes is the number of visited-record flushes to visited.spill.
	Flushes int
	// States is the number of visited-set records resident on disk.
	States int64
	// Bytes is the total bytes written to spill files.
	Bytes int64
}

// spillRecBytes is the on-disk encoding of one visited record:
// hash(8) + parent(8) + eidx(4).
const spillRecBytes = 8 + 8 + 4

// spillKeyBytes is the in-memory payload per visited state once its
// record has spilled: just the 8-byte membership key.
const spillKeyBytes = 8

// parkedLayer is one frontier layer parked on disk: an open section
// file plus the per-entry frame offsets. All fields are set at
// construction; workers fetch ranges concurrently through ReadAt.
type parkedLayer struct {
	f    storage.File // gcrt:guard immutable
	path string       // gcrt:guard immutable
	offs []int64      // gcrt:guard immutable
	lens []int32      // gcrt:guard immutable
}

// fetchRange reads and decodes entries [lo,hi) of the parked layer
// with a single contiguous ReadAt, verifying each frame's checksum.
func (pl *parkedLayer) fetchRange(m *gcmodel.Model, lo, hi int) ([]cimp.System[*gcmodel.Local], error) {
	start := pl.offs[lo]
	end := pl.offs[hi-1] + int64(pl.lens[hi-1])
	buf := make([]byte, end-start)
	if _, err := pl.f.ReadAt(buf, start); err != nil {
		return nil, fmt.Errorf("explore: spill read %s [%d:%d): %w", pl.path, start, end, err)
	}
	out := make([]cimp.System[*gcmodel.Local], 0, hi-lo)
	off := 0
	for i := lo; i < hi; i++ {
		name, payload, next, err := checkpoint.ReadSection(buf, off)
		if err != nil {
			return nil, fmt.Errorf("explore: spill frame %d in %s: %w", i, pl.path, err)
		}
		if name != "s" {
			return nil, fmt.Errorf("explore: spill frame %d in %s: unexpected section %q", i, pl.path, name)
		}
		st, rest, err := m.DecodeState(payload)
		if err != nil {
			return nil, fmt.Errorf("explore: spill frame %d in %s: %w", i, pl.path, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("explore: spill frame %d in %s: %d trailing bytes", i, pl.path, len(rest))
		}
		out = append(out, st)
		off = next
	}
	return out, nil
}

// spillState owns the spill directory and files. Its methods lock mu
// internally; the hot paths workers touch (parkedLayer reads) go
// through immutable fields only.
type spillState struct {
	fs   storage.FS // gcrt:guard immutable
	dir  string     // gcrt:guard immutable
	keep bool       // gcrt:guard immutable

	mu      sync.Mutex   // gcrt:guard atomic
	active  bool         // gcrt:guard by(mu)
	err     error        // gcrt:guard by(mu)
	vf      storage.File // gcrt:guard by(mu)
	vfPath  string       // gcrt:guard by(mu)
	parked  *parkedLayer // gcrt:guard by(mu)
	seq     int          // gcrt:guard by(mu)
	layers  int          // gcrt:guard by(mu)
	flushes int          // gcrt:guard by(mu)
	states  int64        // gcrt:guard by(mu)
	bytes   int64        // gcrt:guard by(mu)
}

// newSpillState wires the rung without activating it; keep says
// whether visited records must be retained for trace replay.
func newSpillState(fsys storage.FS, dir string, keep bool) *spillState {
	return &spillState{fs: storage.OrOS(fsys), dir: dir, keep: keep}
}

func (sp *spillState) isActive() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.active
}

// firstErr returns the latched spill failure, if any (nil without a
// spill).
func (sp *spillState) firstErr() error {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.err
}

// fail latches the first spill failure (workers race to report).
func (sp *spillState) fail(err error) {
	sp.mu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.mu.Unlock()
}

func (sp *spillState) stats() SpillStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpillStats{Active: sp.active, Layers: sp.layers, Flushes: sp.flushes, States: sp.states, Bytes: sp.bytes}
}

// takeParked returns the parked file for the layer about to be
// expanded (nil when the frontier is in memory).
func (sp *spillState) takeParked() *parkedLayer {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.parked
}

// activate opens the spill directory and converts the visited set to
// spilled (membership + hot buffer) representation. Idempotent; runs
// only at a layer boundary.
func (sp *spillState) activate(v *visited) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.err != nil {
		return sp.err
	}
	if sp.active {
		return nil
	}
	if err := sp.fs.MkdirAll(sp.dir); err != nil {
		sp.err = fmt.Errorf("explore: spill dir %s: %w", sp.dir, err)
		return sp.err
	}
	path := filepath.Join(sp.dir, "visited.spill")
	f, err := sp.fs.Create(path)
	if err != nil {
		sp.err = fmt.Errorf("explore: spill file %s: %w", path, err)
		return sp.err
	}
	sp.vf, sp.vfPath = f, path
	v.spillConvert(sp.keep)
	sp.active = true
	return nil
}

// boundary runs the per-layer spill work at a consistent cut: flush
// the hot visited records, then park the freshly built next layer.
// Returns (and latches) the first failure.
func (sp *spillState) boundary(m *gcmodel.Model, v *visited, layer []qent) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.err != nil {
		return sp.err
	}
	if !sp.active {
		return nil
	}
	if err := sp.flushHotLocked(v); err != nil {
		sp.err = err
		return err
	}
	if err := sp.parkLayerLocked(m, layer); err != nil {
		sp.err = err
		return err
	}
	runtime.GC() // the layer's decoded states and flushed records just became garbage
	return nil
}

// flushHotLocked appends every shard's hot records to visited.spill as
// one CRC-framed "recs" section, then clears the hot buffers.
func (sp *spillState) flushHotLocked(v *visited) error {
	if !sp.keep {
		return nil
	}
	var payload []byte
	n := 0
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		for h, r := range s.hot {
			payload = binary.LittleEndian.AppendUint64(payload, h)
			payload = binary.LittleEndian.AppendUint64(payload, r.parent)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(r.eidx))
			n++
		}
		clear(s.hot)
		s.mu.Unlock()
	}
	if n == 0 {
		return nil
	}
	frame := checkpoint.AppendSection(nil, "recs", payload)
	if _, err := sp.vf.Write(frame); err != nil {
		return fmt.Errorf("explore: spill write %s: %w", sp.vfPath, err)
	}
	if err := sp.vf.Sync(); err != nil {
		return fmt.Errorf("explore: spill sync %s: %w", sp.vfPath, err)
	}
	sp.flushes++
	sp.states += int64(n)
	sp.bytes += int64(len(frame))
	return nil
}

// parkLayerLocked writes the next layer's encoded states to a fresh
// frontier file and drops the decoded states from memory. The
// previous layer's parked file has been fully consumed and is
// removed.
func (sp *spillState) parkLayerLocked(m *gcmodel.Model, layer []qent) error {
	sp.closeParkedLocked()
	if len(layer) == 0 {
		return nil
	}
	path := filepath.Join(sp.dir, fmt.Sprintf("frontier-%06d.spill", sp.seq))
	sp.seq++
	f, err := sp.fs.Create(path)
	if err != nil {
		return fmt.Errorf("explore: spill file %s: %w", path, err)
	}
	offs := make([]int64, len(layer))
	lens := make([]int32, len(layer))
	var off int64
	var buf, scratch []byte
	for i := range layer {
		scratch = m.EncodeState(scratch[:0], layer[i].state)
		pre := len(buf)
		buf = checkpoint.AppendSection(buf, "s", scratch)
		offs[i] = off
		lens[i] = int32(len(buf) - pre)
		off += int64(len(buf) - pre)
		if len(buf) >= 1<<20 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return fmt.Errorf("explore: spill write %s: %w", path, err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("explore: spill write %s: %w", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("explore: spill sync %s: %w", path, err)
	}
	sp.parked = &parkedLayer{f: f, path: path, offs: offs, lens: lens}
	sp.layers++
	sp.bytes += off
	var zero cimp.System[*gcmodel.Local]
	for i := range layer {
		layer[i].state = zero
	}
	return nil
}

func (sp *spillState) closeParkedLocked() {
	if sp.parked == nil {
		return
	}
	sp.parked.f.Close()
	sp.fs.Remove(sp.parked.path)
	sp.parked = nil
}

// loadRecs reads every spilled visited record back into one map — the
// counterexample-trace path needs parent links that have gone to disk.
// Only called after the search has stopped.
func (sp *spillState) loadRecs() (map[uint64]rec, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.vf == nil {
		return nil, nil
	}
	data, err := storage.ReadFile(sp.fs, sp.vfPath)
	if err != nil {
		return nil, fmt.Errorf("explore: spill trace records unreadable: %w", err)
	}
	recs := make(map[uint64]rec, sp.states)
	for off := 0; off < len(data); {
		name, payload, next, err := checkpoint.ReadSection(data, off)
		if err != nil {
			return nil, fmt.Errorf("explore: spill trace records damaged: %w", err)
		}
		if name != "recs" || len(payload)%spillRecBytes != 0 {
			return nil, fmt.Errorf("explore: spill trace records damaged: section %q, %d payload bytes", name, len(payload))
		}
		for p := 0; p+spillRecBytes <= len(payload); p += spillRecBytes {
			h := binary.LittleEndian.Uint64(payload[p:])
			parent := binary.LittleEndian.Uint64(payload[p+8:])
			recs[h] = rec{parent: parent, eidx: int32(binary.LittleEndian.Uint32(payload[p+16:]))}
		}
		off = next
	}
	return recs, nil
}

// cleanup best-effort removes the spill working files; they are a
// representation of a finished (or failed) search, not a durability
// artifact.
func (sp *spillState) cleanup() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.closeParkedLocked()
	if sp.vf != nil {
		sp.vf.Close()
		sp.fs.Remove(sp.vfPath)
		sp.vf = nil
	}
}
