package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// ErrNoSpace is the injected append failure: the faultfs analogue of
// ENOSPC. The log treats it like any other write error — poison the log,
// fail the waiters, never acknowledge — and the replica layer answers by
// quarantining the DM.
var ErrNoSpace = errors.New("wal: no space left on device (injected)")

// FaultStats counts every fault a FaultFS injected. Chaos campaigns gate
// on bit-for-bit equality of these counters across seeded replays.
type FaultStats struct {
	// BitFlips counts frames damaged in place (segments and snapshots).
	BitFlips int
	// DroppedSegments counts whole segment files removed.
	DroppedSegments int
	// ShortReads counts reads that returned fewer bytes than the file holds.
	ShortReads int
	// FailedAppends counts appends refused with ErrNoSpace.
	FailedAppends int
	// Crashes counts CrashLoseUnsynced invocations; LostBytes is the
	// unsynced data they destroyed.
	Crashes   int
	LostBytes int64
}

// FaultFS is a fault-injecting FS for storage-fault campaigns. It passes
// everything through to the real filesystem while (a) tracking which byte
// prefix of every file it created has actually been fsynced, so a
// simulated power failure can destroy exactly the unsynced suffix, and
// (b) offering seeded at-rest damage — bit flips, dropped segments,
// snapshot corruption — and op-level faults (ENOSPC on append, short
// reads, latency per operation, and a slow disk's stall after freeing
// blocks). Every random choice comes from one rand.Rand seeded at
// construction, so a campaign that replays the same seed injects the
// identical faults.
//
// The at-rest helpers deliberately refuse to damage the final segment:
// recovery cannot distinguish damage at the tail of the last segment from
// the torn tail of a crashed append, so it would truncate-and-continue —
// silently losing acknowledged records instead of detecting corruption.
// That blind spot is inherent to torn-tail recovery (see DESIGN.md §12);
// the campaigns therefore aim their bit flips where detection is possible
// and rely on crash-loss simulation to exercise the tail path.
type FaultFS struct {
	base FS

	mu          sync.Mutex
	rng         *rand.Rand
	stats       FaultStats
	opLatency   map[Op]time.Duration
	freeStall   time.Duration // the next sync after freeing blocks sleeps this long
	stallArmed  bool
	frees       int
	failAppends map[string]bool // dir -> every append fails with ErrNoSpace
	shortReads  map[string]bool // dir -> non-final segment reads come back short
	written     map[string]int64
	synced      map[string]int64
}

// NewFaultFS returns a FaultFS over the real filesystem, drawing every
// fault from seed.
func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{
		base:        OSFS,
		rng:         rand.New(rand.NewSource(seed)),
		opLatency:   make(map[Op]time.Duration),
		failAppends: make(map[string]bool),
		shortReads:  make(map[string]bool),
		written:     make(map[string]int64),
		synced:      make(map[string]int64),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Op names one kind of filesystem operation, for SetOpLatency.
type Op int

// The operations: one per FS method, and a file handle's Write and Sync.
const (
	OpMkdirAll Op = iota
	OpReadDir
	OpReadFile
	OpWriteFile
	OpOpenAppend
	OpTruncate
	OpRename
	OpRemove
	OpSyncFile
	OpSyncDir
	OpWrite
	OpSync
)

// SetOpLatency adds d to every operation of kind op. A caller that wants
// every operation delayed sets each Op.
func (f *FaultFS) SetOpLatency(op Op, d time.Duration) {
	f.mu.Lock()
	f.opLatency[op] = d
	f.mu.Unlock()
}

// StallSyncAfterFree models a disk that discards freed blocks: after a
// Remove, a Truncate or a Rename that replaces a file, the next sync — of
// any file, through SyncFile or an open handle's Sync — sleeps d first.
// Zero disarms it.
func (f *FaultFS) StallSyncAfterFree(d time.Duration) {
	f.mu.Lock()
	f.freeStall, f.stallArmed = d, false
	f.mu.Unlock()
}

// Frees counts the operations made through the FS that freed blocks:
// Removes, Truncates and replacing Renames. The at-rest helpers and
// CrashLoseUnsynced act on the disk beneath and are not counted.
func (f *FaultFS) Frees() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frees
}

// freed records a block-freeing operation. Called with f.mu held.
func (f *FaultFS) freed() {
	f.frees++
	f.stallArmed = f.freeStall > 0
}

// syncStall sleeps the stall a freeing operation armed, once.
func (f *FaultFS) syncStall() {
	f.mu.Lock()
	d := f.freeStall
	armed := f.stallArmed
	f.stallArmed = false
	f.mu.Unlock()
	if armed {
		time.Sleep(d)
	}
}

// FailAppends arms (or disarms) ENOSPC injection: while armed, every
// append to a log in dir fails with ErrNoSpace.
func (f *FaultFS) FailAppends(dir string, on bool) {
	f.mu.Lock()
	f.failAppends[filepath.Clean(dir)] = on
	f.mu.Unlock()
}

// ArmShortReads arms (or disarms) short reads: while armed, reading a
// non-final segment in dir returns a truncated prefix, which recovery
// must classify as corruption — never as a torn tail.
func (f *FaultFS) ArmShortReads(dir string, on bool) {
	f.mu.Lock()
	f.shortReads[filepath.Clean(dir)] = on
	f.mu.Unlock()
}

// pause sleeps the configured latency of op.
func (f *FaultFS) pause(op Op) {
	f.mu.Lock()
	d := f.opLatency[op]
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	f.pause(OpMkdirAll)
	return f.base.MkdirAll(dir, perm)
}

func (f *FaultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	f.pause(OpReadDir)
	return f.base.ReadDir(dir)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	f.pause(OpReadFile)
	b, err := f.base.ReadFile(path)
	if err != nil {
		return b, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shortReads[filepath.Dir(path)] && len(b) > 0 && f.isNonFinalSegment(path) {
		f.stats.ShortReads++
		idx, _ := parseIdx(filepath.Base(path), segPrefix, segSuffix)
		return b[:f.shortCut(b, idx)], nil
	}
	return b, nil
}

// shortCut picks the length a short read of segment idx's bytes b stops
// at: inside a seeded frame — a record or the seal — never on a frame
// boundary, where the cut would decode cleanly with records silently
// missing, which no reader can detect. Called with f.mu held.
func (f *FaultFS) shortCut(b []byte, idx uint64) int {
	frames, end, sealed := segmentEnd(b, idx)
	if sealed {
		frames = append(frames, [2]int{end, frameHeaderSize + 8})
	}
	if len(frames) == 0 {
		return len(b) - 1 - f.rng.Intn(len(b)) // no clean frame to respect
	}
	fr := frames[f.rng.Intn(len(frames))]
	return fr[0] + 1 + f.rng.Intn(fr[1]-1)
}

// isNonFinalSegment reports whether path is a segment file other than the
// highest-indexed one in its directory — the only files short reads and
// at-rest damage may touch, because only there is damage detectable.
// Called with f.mu held.
func (f *FaultFS) isNonFinalSegment(path string) bool {
	idx, ok := parseIdx(filepath.Base(path), segPrefix, segSuffix)
	if !ok {
		return false
	}
	segs, err := f.liveSegments(filepath.Dir(path))
	if err != nil || len(segs) == 0 {
		return false
	}
	return idx < segs[len(segs)-1]
}

// liveSegments returns the sorted indexes of the segments in dir that the
// newest valid snapshot does not cover: the ones recovery reads.
func (f *FaultFS) liveSegments(dir string) ([]uint64, error) {
	entries, err := f.base.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	_, from, _, _, err := newestSnapshot(f.base, dir, entries)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if idx, ok := parseIdx(e.Name(), segPrefix, segSuffix); ok && idx >= from {
			segs = append(segs, idx)
		}
	}
	slices.Sort(segs)
	return segs, nil
}

func (f *FaultFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	f.pause(OpWriteFile)
	if err := f.base.WriteFile(path, data, perm); err != nil {
		return err
	}
	f.mu.Lock()
	f.written[path] = int64(len(data))
	f.synced[path] = 0
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) OpenAppend(path string) (File, error) {
	f.pause(OpOpenAppend)
	file, err := f.base.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.written[path] = 0
	f.synced[path] = 0
	f.mu.Unlock()
	return &faultFile{fs: f, path: path, f: file}, nil
}

func (f *FaultFS) Truncate(path string, size int64) error {
	f.pause(OpTruncate)
	if err := f.base.Truncate(path, size); err != nil {
		return err
	}
	f.mu.Lock()
	f.freed()
	if n, ok := f.written[path]; ok && n > size {
		f.written[path] = size
	}
	if n, ok := f.synced[path]; ok && n > size {
		f.synced[path] = size
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.pause(OpRename)
	_, statErr := os.Lstat(newpath)
	if err := f.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if statErr == nil {
		f.freed() // the file newpath named is gone
	}
	if n, ok := f.written[oldpath]; ok {
		f.written[newpath] = n
		delete(f.written, oldpath)
	}
	if n, ok := f.synced[oldpath]; ok {
		f.synced[newpath] = n
		delete(f.synced, oldpath)
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Remove(path string) error {
	f.pause(OpRemove)
	if err := f.base.Remove(path); err != nil {
		return err
	}
	f.mu.Lock()
	f.freed()
	delete(f.written, path)
	delete(f.synced, path)
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) SyncFile(path string) error {
	f.pause(OpSyncFile)
	f.syncStall()
	if err := f.base.SyncFile(path); err != nil {
		return err
	}
	f.mu.Lock()
	if n, ok := f.written[path]; ok {
		f.synced[path] = n
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) SyncDir(dir string) {
	f.pause(OpSyncDir)
	f.base.SyncDir(dir)
}

// faultFile is an open append handle with fault hooks.
type faultFile struct {
	fs   *FaultFS
	path string
	f    File
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.pause(OpWrite)
	w.fs.mu.Lock()
	if w.fs.failAppends[filepath.Dir(w.path)] {
		w.fs.stats.FailedAppends++
		w.fs.mu.Unlock()
		return 0, ErrNoSpace
	}
	w.fs.mu.Unlock()
	n, err := w.f.Write(p)
	w.fs.mu.Lock()
	w.fs.written[w.path] += int64(n)
	w.fs.mu.Unlock()
	return n, err
}

func (w *faultFile) Sync() error {
	w.fs.pause(OpSync)
	w.fs.syncStall()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fs.mu.Lock()
	w.fs.synced[w.path] = w.fs.written[w.path]
	w.fs.mu.Unlock()
	return nil
}

func (w *faultFile) Close() error { return w.f.Close() }

// CrashLoseUnsynced simulates a power failure for the log in dir: every
// file the FaultFS wrote there is cut back to its last fsynced prefix,
// destroying data the OS had accepted but never promised durable. The cut
// lands at a seeded point inside the unsynced suffix, so the tail can be
// ragged — whole unacknowledged frames followed by a partial one, the
// multi-record torn write the single-record truncation in readSegment
// must still recover from. Call only while the log is closed (the crash
// precedes the restart). Returns the bytes destroyed.
func (f *FaultFS) CrashLoseUnsynced(dir string) (lost int64, err error) {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Crashes++
	for path, written := range f.written {
		if filepath.Dir(path) != dir {
			continue
		}
		keep := f.synced[path]
		if written <= keep {
			continue
		}
		// Keep a seeded prefix of the unsynced suffix: 0 models nothing
		// beyond the sync surviving, anything more models a ragged tear.
		keep += f.rng.Int63n(written - keep)
		if terr := f.base.Truncate(path, keep); terr != nil {
			return lost, terr
		}
		f.stats.LostBytes += written - keep
		lost += written - keep
		f.written[path] = keep
		if f.synced[path] > keep {
			f.synced[path] = keep
		}
	}
	return lost, nil
}

// CorruptSegmentFrame flips one seeded bit inside a record of a live
// non-final segment in dir — at-rest bit rot that recovery must detect as
// corruption, never skip, and never mistake for a torn tail. ok is false
// when dir holds no eligible record (fewer than two live segments, or no
// records outside the final one). Call only while the log is closed.
func (f *FaultFS) CorruptSegmentFrame(dir string) (file string, offset int64, ok bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	segs, err := f.liveSegments(dir)
	if err != nil || len(segs) < 2 {
		return "", 0, false, err
	}
	// Collect every record in every non-final live segment.
	type frame struct {
		name      string
		off, size int
	}
	var frames []frame
	contents := make(map[string][]byte)
	for _, idx := range segs[:len(segs)-1] {
		name := segName(idx)
		b, rerr := f.base.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			return "", 0, false, rerr
		}
		contents[name] = b
		spans, _, _ := segmentEnd(b, idx)
		for _, sp := range spans {
			frames = append(frames, frame{name: name, off: sp[0], size: sp[1]})
		}
	}
	if len(frames) == 0 {
		return "", 0, false, nil
	}
	target := frames[f.rng.Intn(len(frames))]
	b := contents[target.name]
	bit := f.rng.Intn(target.size * 8)
	b[target.off+bit/8] ^= 1 << (bit % 8)
	path := filepath.Join(dir, target.name)
	if werr := f.base.WriteFile(path, b, 0o644); werr != nil {
		return "", 0, false, werr
	}
	f.stats.BitFlips++
	return target.name, int64(target.off), true, nil
}

// DropSegment removes a seeded live non-final segment in dir — a whole
// file of acknowledged records gone, which recovery must detect as a hole
// in the segment sequence. ok is false when dir has fewer than two live
// segments. Call only while the log is closed.
func (f *FaultFS) DropSegment(dir string) (file string, ok bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	segs, err := f.liveSegments(dir)
	if err != nil || len(segs) < 2 {
		return "", false, err
	}
	name := segName(segs[f.rng.Intn(len(segs)-1)])
	path := filepath.Join(dir, name)
	if rerr := f.base.Remove(path); rerr != nil {
		return "", false, rerr
	}
	delete(f.written, path)
	delete(f.synced, path)
	f.stats.DroppedSegments++
	return name, true, nil
}

// CorruptSnapshot flips one seeded bit in the newest valid snapshot in
// dir, so the next open cannot use it. ok is false when dir holds no valid
// snapshot. Call only while the log is closed.
func (f *FaultFS) CorruptSnapshot(dir string) (file string, ok bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entries, err := f.base.ReadDir(dir)
	if err != nil {
		return "", false, err
	}
	state, _, slot, ok, err := newestSnapshot(f.base, dir, entries)
	if err != nil || !ok {
		return "", false, err
	}
	name := slotName(slot)
	path := filepath.Join(dir, name)
	b, err := f.base.ReadFile(path)
	if err != nil {
		return "", false, err
	}
	bit := f.rng.Intn((frameHeaderSize + 8 + len(state)) * 8)
	b[bit/8] ^= 1 << (bit % 8)
	if werr := f.base.WriteFile(path, b, 0o644); werr != nil {
		return "", false, werr
	}
	f.stats.BitFlips++
	return name, true, nil
}
