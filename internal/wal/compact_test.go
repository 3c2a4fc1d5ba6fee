package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// TestCompactionFreesNoBlocks: snapshots and rotations reuse retired
// segments and overwrite the two slots in place — no Remove, no Truncate,
// no Rename onto a live name — so the directory holds a bounded set of
// files however many cycles run, and every cycle recovers.
func TestCompactionFreesNoBlocks(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(1)
	l, _ := reopen(t, dir, WithFS(ffs), WithSegmentBytes(256))
	next := 0
	for cycle := 0; cycle < 12; cycle++ {
		for i := 0; i < 25; i++ {
			if err := l.Append([]byte(fmt.Sprintf("rec-%d", next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := l.WriteSnapshot([]byte(strconv.Itoa(next))); err != nil {
			t.Fatal(err)
		}
	}
	l.Append([]byte(fmt.Sprintf("rec-%d", next)))
	next++
	if n := ffs.Frees(); n != 0 {
		t.Fatalf("serving the log freed blocks %d times", n)
	}
	if got := l.Metrics().Snapshots.Value(); got != 12 {
		t.Fatalf("%d snapshots written, want 12", got)
	}
	l.Close()
	entries, _ := os.ReadDir(dir)
	if len(entries) > 8 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("the directory grew to %d files: %v", len(entries), names)
	}
	_, rec := reopen(t, dir, WithFS(ffs))
	if string(rec.Snapshot) != strconv.Itoa(next-1) || len(rec.Records) != 1 || string(rec.Records[0]) != fmt.Sprintf("rec-%d", next-1) {
		t.Fatalf("recovered snapshot %q and %q", rec.Snapshot, rec.Records)
	}
	if n := ffs.Frees(); n != 0 {
		t.Fatalf("reopening a cleanly closed log freed blocks %d times", n)
	}
}

// TestReusedSegmentStaleTail: a reused file's old bytes beyond the new
// records read as the end of the segment — never as records — whether the
// segment is the last one (the tail is cut off) or sealed (the seal says
// where the records end); and a sealed segment cut short of its seal is
// corruption, not a shorter segment.
func TestReusedSegmentStaleTail(t *testing.T) {
	var stale []byte
	for i := 0; i < 20; i++ {
		stale = appendFrame(stale, segSeed(3), []byte(fmt.Sprintf("old-record-%02d", i)))
	}
	fresh := appendFrame(appendFrame(nil, segSeed(9), []byte("new-0")), segSeed(9), []byte("new-1"))
	reused := append(append([]byte(nil), fresh...), stale[len(fresh):]...)

	// A snapshot covering everything below segment 9, so 9 is the first
	// segment replayed.
	snapAt9 := func(dir string) {
		os.WriteFile(filepath.Join(dir, slotName(0)), appendFrame(nil, slotSeed, []byte{9, 0, 0, 0, 0, 0, 0, 0, 's'}), 0o644)
	}
	dir := t.TempDir()
	snapAt9(dir)
	os.WriteFile(filepath.Join(dir, segName(9)), reused, 0o644)
	l, rec := reopen(t, dir, WithFsync(false))
	l.Close()
	if len(rec.Records) != 2 || string(rec.Records[1]) != "new-1" || rec.TruncatedBytes != int64(len(reused)-len(fresh)) {
		t.Fatalf("last reused segment recovered %q, truncated %d", rec.Records, rec.TruncatedBytes)
	}

	seal := func(at int) []byte {
		return appendFrame(nil, sealSeed(9), []byte{byte(at), byte(at >> 8), 0, 0, 0, 0, 0, 0})
	}
	sealed := append(append(append([]byte(nil), fresh...), seal(len(fresh))...), stale[len(fresh)+16:]...)
	for name, tc := range map[string]struct {
		seg  []byte
		want error
	}{
		"sealed":                     {sealed, nil},
		"seal cut off":               {append(append([]byte(nil), fresh[:len(fresh)-7]...), stale[len(fresh)-7:]...), ErrCorrupt},
		"seal at the wrong offset":   {append(append(append([]byte(nil), fresh...), seal(len(fresh)-1)...), stale[len(fresh)+16:]...), ErrCorrupt},
		"unsealed with a stale tail": {reused, ErrCorrupt},
	} {
		dir := t.TempDir()
		snapAt9(dir)
		os.WriteFile(filepath.Join(dir, segName(9)), tc.seg, 0o644)
		os.WriteFile(filepath.Join(dir, segName(10)), appendFrame(nil, segSeed(10), []byte("after")), 0o644)
		l, rec, err := Open(dir, WithFsync(false))
		if tc.want == nil {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			l.Close()
			if len(rec.Records) != 3 || string(rec.Records[2]) != "after" || rec.TruncatedBytes != 0 {
				t.Fatalf("%s: recovered %q, truncated %d", name, rec.Records, rec.TruncatedBytes)
			}
			continue
		}
		if !IsCorruption(err) || !errors.Is(err, tc.want) {
			t.Fatalf("%s: open = %v, want a corruption error", name, err)
		}
	}
}

// crashFS stops a log dead at its n-th filesystem operation after arming:
// that operation and every later one fail without touching the disk, as if
// the process died there. Underneath, a FaultFS remembers what was synced.
type crashFS struct {
	*FaultFS
	mu    sync.Mutex
	armed bool
	left  int
	ops   []string
}

var errCrashed = errors.New("crashed")

func (c *crashFS) step(op string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return nil
	}
	c.ops = append(c.ops, op)
	if c.left--; c.left < 0 {
		return errCrashed
	}
	return nil
}

func (c *crashFS) OpenAppend(path string) (File, error) {
	if err := c.step("open " + filepath.Base(path)); err != nil {
		return nil, err
	}
	f, err := c.FaultFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, c: c, name: filepath.Base(path)}, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	if err := c.step("rename " + filepath.Base(oldpath) + " " + filepath.Base(newpath)); err != nil {
		return err
	}
	return c.FaultFS.Rename(oldpath, newpath)
}

func (c *crashFS) SyncDir(dir string) {
	if c.step("syncdir") == nil {
		c.FaultFS.SyncDir(dir)
	}
}

type crashFile struct {
	File
	c    *crashFS
	name string
}

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.c.step("write " + f.name); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *crashFile) Sync() error {
	if err := f.c.step("sync " + f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *crashFile) Close() error {
	if err := f.c.step("close " + f.name); err != nil {
		return err
	}
	return f.File.Close()
}

// TestCrashAtEverySnapshotStep: a process that dies at any filesystem
// operation of the snapshot path — sealing the segment, reusing a retired
// file for the next one, writing or syncing the slot, retiring what the
// snapshot covers — and then loses every byte it had not synced, recovers
// every record it acknowledged, in order, on top of whichever snapshot
// survived. A snapshot's state here is the count of records it covers.
func TestCrashAtEverySnapshotStep(t *testing.T) {
	run := func(t *testing.T, crashAt int) (steps []string) {
		dir := t.TempDir()
		c := &crashFS{FaultFS: NewFaultFS(int64(crashAt + 1))}
		l, _ := reopen(t, dir, WithFS(c), WithSegmentBytes(200))
		next, acked := 0, 0
		appendN := func(n int) {
			for i := 0; i < n; i++ {
				if l.Append([]byte(fmt.Sprintf("rec-%d", next))) == nil {
					acked = next + 1
				}
				next++
			}
		}
		// Two cycles first, so the next segment is a reused file and both
		// slots hold a snapshot.
		for i := 0; i < 2; i++ {
			appendN(12)
			if err := l.WriteSnapshot([]byte(strconv.Itoa(next))); err != nil {
				t.Fatal(err)
			}
		}
		appendN(5)
		c.mu.Lock()
		c.armed, c.left = true, crashAt
		c.mu.Unlock()
		l.WriteSnapshot([]byte(strconv.Itoa(next)))
		appendN(3)
		c.mu.Lock()
		steps = c.ops
		c.armed = false
		c.mu.Unlock()
		if crashAt < len(steps) {
			// Dead: the log is abandoned, not closed, and the disk loses
			// what was never synced.
			if _, err := c.CrashLoseUnsynced(dir); err != nil {
				t.Fatal(err)
			}
		} else {
			l.Close()
		}
		_, rec := reopen(t, dir, WithFS(c.FaultFS))
		base := 0
		if rec.Snapshot != nil {
			base, _ = strconv.Atoi(string(rec.Snapshot))
		}
		for j, r := range rec.Records {
			if want := fmt.Sprintf("rec-%d", base+j); string(r) != want {
				t.Fatalf("crash at step %d of %v: record %d after snapshot %d is %q, want %q", crashAt, steps, j, base, r, want)
			}
		}
		if got := base + len(rec.Records); got < acked {
			t.Fatalf("crash at step %d of %v: recovered %d records, %d were acknowledged", crashAt, steps, got, acked)
		}
		return steps
	}
	steps := run(t, 1<<30) // a clean run lists the steps
	t.Logf("%d steps: %v", len(steps), steps)
	if len(steps) < 12 {
		t.Fatalf("the snapshot path took only %d steps: %v", len(steps), steps)
	}
	for k := 0; k < len(steps); k++ {
		run(t, k)
	}
}

// TestSnapshotDueSpread: replicas of one item log the same records, so
// each log scales its threshold by a factor fixed by its directory's name;
// the names a cluster's replicas have must land well apart, and inside
// ±25 % of the snapshot's size — of the floor, for a small one.
func TestSnapshotDueSpread(t *testing.T) {
	const size = 1 << 20
	seen := map[int64]string{}
	for _, id := range []string{"dm0", "dm1", "dm2", "dm3", "dm4"} {
		at := snapshotDue(filepath.Join("logs", id), size)
		if at < size*3/4 || at >= size*5/4 {
			t.Fatalf("%s snapshots after %d bytes, outside ±25%% of %d", id, at, size)
		}
		for other, by := range seen {
			if d := max(at-other, other-at); d < size/50 {
				t.Fatalf("%s and %s snapshot within %d bytes of each other", id, by, d)
			}
		}
		seen[at] = id
	}
	if got := snapshotDue("dm0", 10); got < SnapshotFloor*3/4 {
		t.Fatalf("a tiny state snapshots after %d bytes, under the floor", got)
	}
}

// TestReplayIsBoundedBySnapshotSize: an owner that snapshots whenever
// SnapshotDue says so replays, after a crash at any point, at most 1.25×
// the last snapshot's size in record bytes (1.25× the floor for a small
// one) plus the record that crossed the line — and SnapshotDue carries the
// replayed bytes across the restart.
func TestReplayIsBoundedBySnapshotSize(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dm1")
	ffs := NewFaultFS(3)
	l, _ := reopen(t, dir, WithFS(ffs), WithFsync(false))
	state := 0 // bytes of records the state covers; a snapshot of it is that long
	for i := 0; i < 3000; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 100+i%900)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		state += len(rec) / 4
		if l.SnapshotDue() {
			if err := l.Snapshot(make([]byte, state)); err != nil {
				t.Fatal(err)
			}
		}
		if i%97 != 96 {
			continue
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		// Crash: the log is abandoned, not closed.
		l2, rec2 := reopen(t, dir, WithFS(ffs), WithFsync(false))
		replayed := 0
		for _, r := range rec2.Records {
			replayed += len(r)
		}
		if limit := max(len(rec2.Snapshot), SnapshotFloor)*5/4 + 1000; replayed > limit {
			t.Fatalf("after record %d: replayed %d bytes over a %d-byte snapshot, limit %d", i, replayed, len(rec2.Snapshot), limit)
		}
		if due := l2.SnapshotDue(); due != (int64(replayed) >= snapshotDue(dir, len(rec2.Snapshot))) {
			t.Fatalf("after record %d: SnapshotDue %v with %d bytes replayed", i, due, replayed)
		}
		l = l2
	}
	l.Close()
}
