package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fillSegments appends enough records to spread the log over several
// segments, then closes it. Returns the appended payloads.
func fillSegments(t *testing.T, dir string, opts ...Option) [][]byte {
	t.Helper()
	l, _ := reopen(t, dir, append([]Option{WithFsync(false), WithSegmentBytes(128)}, opts...)...)
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%02d-abcdefghijklmnop", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestFaultFSBitFlipQuarantinesOpen(t *testing.T) {
	dir := t.TempDir()
	fillSegments(t, dir)
	ffs := NewFaultFS(1)
	file, off, ok, err := ffs.CorruptSegmentFrame(dir)
	if err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	_, _, err = Open(dir, WithFsync(false), WithFS(ffs))
	if !IsCorruption(err) {
		t.Fatalf("open after bit flip in %s@%d = %v, want CorruptionError", file, off, err)
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
		t.Fatalf("corruption error %v does not unwrap to a frame sentinel", err)
	}
	if got := ffs.Stats().BitFlips; got != 1 {
		t.Fatalf("BitFlips = %d, want 1", got)
	}
}

func TestFaultFSDropSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	fillSegments(t, dir)
	ffs := NewFaultFS(2)
	file, ok, err := ffs.DropSegment(dir)
	if err != nil || !ok {
		t.Fatalf("DropSegment: ok=%v err=%v", ok, err)
	}
	_, _, err = Open(dir, WithFsync(false), WithFS(ffs))
	if !IsCorruption(err) {
		t.Fatalf("open after dropping %s = %v, want CorruptionError (segment gap)", file, err)
	}
}

func TestFaultFSCorruptSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := reopen(t, dir, WithFsync(false))
	if err := l.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	ffs := NewFaultFS(3)
	if _, ok, err := ffs.CorruptSnapshot(dir); err != nil || !ok {
		t.Fatalf("CorruptSnapshot: ok=%v err=%v", ok, err)
	}
	_, _, err := Open(dir, WithFsync(false), WithFS(ffs))
	if !IsCorruption(err) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt snapshot = %v, want CorruptionError/ErrCorrupt", err)
	}
}

func TestFaultFSShortReadDetected(t *testing.T) {
	dir := t.TempDir()
	fillSegments(t, dir)
	ffs := NewFaultFS(4)
	ffs.ArmShortReads(dir, true)
	_, _, err := Open(dir, WithFsync(false), WithFS(ffs))
	if !IsCorruption(err) {
		t.Fatalf("open under short reads = %v, want CorruptionError", err)
	}
	if ffs.Stats().ShortReads == 0 {
		t.Fatal("no short read recorded")
	}
	// Disarmed, the same directory is intact: short reads were a read-path
	// fault, not damage at rest.
	ffs.ArmShortReads(dir, false)
	l, rec := reopen(t, dir, WithFsync(false), WithFS(ffs))
	defer l.Close()
	if len(rec.Records) != 20 {
		t.Fatalf("recovered %d records after disarm, want 20", len(rec.Records))
	}
}

// TestFaultFSENOSPCFailsClosed is the fail-closed regression for injected
// write failures: the append must surface the typed error (never
// acknowledge), the log must poison itself, and a reopen after the
// condition clears must recover exactly the records acknowledged before
// the fault.
func TestFaultFSENOSPCFailsClosed(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(5)
	l, _ := reopen(t, dir, WithFsync(false), WithFS(ffs))
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailAppends(dir, true)
	if err := l.Append([]byte("doomed")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append under ENOSPC = %v, want ErrNoSpace", err)
	}
	// The first failure is sticky: the log must not resume acknowledging.
	if err := l.Append([]byte("after")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append after poison = %v, want sticky ErrNoSpace", err)
	}
	if ffs.Stats().FailedAppends == 0 {
		t.Fatal("no failed append recorded")
	}
	l.Close()

	ffs.FailAppends(dir, false)
	l2, rec := reopen(t, dir, WithFsync(false), WithFS(ffs))
	defer l2.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want the 5 acked ones", len(rec.Records))
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("acked-%d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

// TestFaultFSCrashLoseUnsynced checks the power-failure model: with fsync
// disabled nothing is ever promised durable, so a crash destroys a seeded
// suffix of the segment and recovery comes back with a clean prefix of
// the appended records — possibly after truncating a ragged torn tail.
func TestFaultFSCrashLoseUnsynced(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(6)
	l, _ := reopen(t, dir, WithFsync(false), WithFS(ffs))
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("unsynced-%d", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	lost, err := ffs.CrashLoseUnsynced(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatal("crash lost nothing despite fsync off")
	}
	l2, rec := reopen(t, dir, WithFsync(false), WithFS(ffs))
	defer l2.Close()
	if len(rec.Records) >= 10 {
		t.Fatalf("recovered all %d records after losing %d bytes", len(rec.Records), lost)
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, want[i]) {
			t.Fatalf("record %d = %q, want prefix of appended order", i, r)
		}
	}
	if st := ffs.Stats(); st.Crashes != 1 || st.LostBytes != lost {
		t.Fatalf("stats = %+v, want Crashes=1 LostBytes=%d", st, lost)
	}
}

// TestFaultFSCrashKeepsSynced is the other half of the crash model: what
// was fsynced survives. Per-record fsync mode syncs every append, so a
// crash destroys nothing acknowledged.
func TestFaultFSCrashKeepsSynced(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(7)
	l, _ := reopen(t, dir, WithFS(ffs), WithGroupCommit(false))
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("synced-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	lost, err := ffs.CrashLoseUnsynced(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("crash lost %d fsynced bytes", lost)
	}
	l2, rec := reopen(t, dir, WithFS(ffs))
	defer l2.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want all 5 synced", len(rec.Records))
	}
}

// TestFaultFSSeededReplay: two FaultFS instances with the same seed over
// identical directories inject the identical faults — the property the
// chaos gate's bit-for-bit counter replay rests on.
func TestFaultFSSeededReplay(t *testing.T) {
	type outcome struct {
		file  string
		off   int64
		ok    bool
		stats FaultStats
	}
	run := func(seed int64) outcome {
		dir := t.TempDir()
		fillSegments(t, dir)
		ffs := NewFaultFS(seed)
		file, off, ok, err := ffs.CorruptSegmentFrame(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ffs.DropSegment(dir); err != nil {
			t.Fatal(err)
		}
		return outcome{file, off, ok, ffs.Stats()}
	}
	a, b := run(99), run(99)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestFaultFSSlowDisk: the slow-disk model. SetOpLatency delays one kind
// of operation; after a Remove, a Truncate or a Rename that replaces a
// file, the next sync — of any file, by path or by handle — stalls once;
// a Rename onto a free name frees nothing.
func TestFaultFSSlowDisk(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(8)
	// Well above what the real disk under the test takes for any of these
	// operations, a real unlink or the sync after one included.
	const stall = 300 * time.Millisecond
	ffs.StallSyncAfterFree(stall)
	ffs.SetOpLatency(OpRename, stall)
	path := func(name string) string { return filepath.Join(dir, name) }
	f, err := ffs.OpenAppend(path("a"))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("x"))
	timed := func(what string, op func() error, slow bool) {
		t.Helper()
		start := time.Now()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if took := time.Since(start); (took >= stall) != slow {
			t.Fatalf("%s took %v; slow=%v expected", what, took, slow)
		}
	}
	timed("sync before any free", f.Sync, false)
	timed("rename onto a free name", func() error { return ffs.Rename(path("a"), path("b")) }, true)
	timed("sync after it", f.Sync, false)
	os.WriteFile(path("c"), []byte("c"), 0o644)
	timed("rename over a file", func() error { return ffs.Rename(path("c"), path("b")) }, true)
	timed("sync after the replacing rename", func() error { return ffs.SyncFile(path("b")) }, true)
	timed("the sync after that", f.Sync, false)
	os.WriteFile(path("d"), []byte("d"), 0o644)
	timed("remove", func() error { return ffs.Remove(path("d")) }, false)
	timed("sync after the remove", f.Sync, true)
	if n := ffs.Frees(); n != 2 {
		t.Fatalf("Frees = %d, want 2 (a replacing rename and a remove)", n)
	}
	f.Close()
}
