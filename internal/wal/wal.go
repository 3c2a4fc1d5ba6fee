package wal

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: log closed")

// File names. A segment's name carries its index. A retired segment —
// superseded by a durable snapshot — is renamed to a free name and waits
// to be reused as a later segment. The two snapshot slots are files of
// their own, overwritten in turn; each records the segment index its
// snapshot covers up to.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	freeSuffix = ".free"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(idx uint64) string  { return fmt.Sprintf("%s%016x%s", segPrefix, idx, segSuffix) }
func freeName(idx uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, idx, freeSuffix) }
func slotName(slot int) string   { return fmt.Sprintf("%s%016x%s", snapPrefix, slot, snapSuffix) }

func parseIdx(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return idx, err == nil
}

// options is the resolved configuration.
type options struct {
	segmentBytes int64
	fsync        bool
	groupCommit  bool
	fs           FS
}

// Option configures a Log at Open.
type Option func(*options)

// WithSegmentBytes sets the rotation threshold: a segment that grows past
// it is sealed and the next one started. Default 4 MiB.
func WithSegmentBytes(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.segmentBytes = n
		}
	}
}

// WithFsync controls whether flushes reach stable storage (fsync) or stop
// at the OS (write only). Default on. Simulated-crash harnesses turn it
// off: their "crashes" lose process memory, not the page cache, and the
// recovery logic under test is identical.
func WithFsync(on bool) Option {
	return func(o *options) { o.fsync = on }
}

// WithGroupCommit controls fsync batching. On (the default), a flush
// leader syncs every record framed since the last flush and concurrent
// appenders piggyback on its fsync. Off, every append flushes and syncs by
// itself, serialized, before returning — the per-record-fsync baseline the
// E12 experiment measures group commit against.
func WithGroupCommit(on bool) Option {
	return func(o *options) { o.groupCommit = on }
}

// WithFS substitutes the filesystem the log runs on. Default OSFS; fault
// campaigns pass a FaultFS to inject seeded storage faults.
func WithFS(fs FS) Option {
	return func(o *options) {
		if fs != nil {
			o.fs = fs
		}
	}
}

// Metrics exposes the log's operational counters.
type Metrics struct {
	// Appends counts records appended; Flushes counts flush+fsync rounds.
	// Their ratio is the realized group-commit batch size.
	Appends metrics.Counter
	Flushes metrics.Counter
	// BatchSize samples the number of records each flush made durable.
	BatchSize metrics.IntHistogram
	// FlushLatency times each flush+fsync round.
	FlushLatency metrics.Histogram
	// Rotations and Snapshots count segment rolls and snapshot compactions.
	Rotations metrics.Counter
	Snapshots metrics.Counter
}

// Recovery reports what Open rebuilt from disk.
type Recovery struct {
	// Snapshot is the newest durable snapshot payload, nil if none.
	Snapshot []byte
	// Records holds every record appended after the snapshot, in order.
	Records [][]byte
	// TruncatedBytes is the tail dropped from the last segment: a torn
	// append, or what a reused file still held beyond the new records.
	TruncatedBytes int64
}

// A Log is an open write-ahead log. Append, AppendCallback and Snapshot are
// safe for concurrent use, but a snapshot's state must reflect exactly the
// records appended before it (single-writer discipline — the replica
// layer's actor loop satisfies it trivially).
type Log struct {
	dir  string
	opts options
	m    Metrics

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a flush round ends or the leader retires
	pend     []byte     // records framed since the last round took the batch
	spare    []byte     // the previous batch's buffer, reused
	cut      *cut       // a requested snapshot the next round carries out
	tail     uint64     // the segment the next framed record lands in
	appended uint64     // records framed into pend
	flushed  uint64     // records made durable
	snaps    uint64     // snapshots requested
	snapDone uint64     // snapshots durable
	logged   int64      // record bytes appended (or replayed) since the last snapshot
	due      int64      // the logged count at which SnapshotDue turns true
	waiters  []waiter
	flushing bool  // a group-commit leader is active
	err      error // sticky: first flush failure poisons the log
	closed   bool

	// The files, owned by whoever runs the flush round: the group-commit
	// leader, or an appender holding mu throughout when group commit is off.
	f        File
	segIdx   uint64
	segBytes int64    // bytes written to the current segment
	recycled bool     // the current segment is a reused file: stale bytes may follow the new ones
	liveFrom uint64   // the lowest segment the newest durable snapshot does not cover
	free     []uint64 // retired segments waiting for reuse, by their old index
	nextSlot int      // the snapshot slot the next snapshot overwrites
}

// cut splits a round's records between the current segment and the next:
// pend[:at] ends the current one, the rest begins the next. With a state it
// is a snapshot covering every record before it; without one, a segment
// that reached the rotation threshold.
type cut struct {
	at    int
	state []byte
	gen   uint64 // the snapshot's number, for WriteSnapshot to wait on
}

// waiter is one append awaiting durability.
type waiter struct {
	seq uint64
	fn  func(error)
}

// Open opens (creating if needed) the log in dir, recovers its durable
// state, and starts a fresh segment for new appends. The returned Recovery
// carries the newest snapshot and the records appended after it; a torn
// record at the very tail of the last segment is truncated away, while
// corruption anywhere else fails the open — a log must never silently skip
// past a valid record.
func Open(dir string, opt ...Option) (*Log, Recovery, error) {
	o := options{segmentBytes: 4 << 20, fsync: true, groupCommit: true, fs: OSFS}
	for _, fn := range opt {
		fn(&o)
	}
	if err := o.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	rec, lay, err := scan(dir, o.fs)
	if err != nil {
		return nil, Recovery{}, err
	}
	l := &Log{dir: dir, opts: o, tail: lay.next, liveFrom: lay.from, free: lay.free, nextSlot: lay.nextSlot,
		due: snapshotDue(dir, len(rec.Snapshot))}
	l.cond = sync.NewCond(&l.mu)
	for _, r := range rec.Records {
		l.logged += int64(len(r))
	}
	// A crash between a snapshot and the retirement of what it covers
	// leaves dead segments under their names: retire them now.
	for _, idx := range lay.dead {
		if err := l.retire(idx); err != nil {
			return nil, Recovery{}, err
		}
	}
	if err := l.openSegment(lay.next); err != nil {
		return nil, Recovery{}, err
	}
	return l, rec, nil
}

// layout is what scan found on disk besides the records.
type layout struct {
	from     uint64   // the first segment replayed: the snapshot's index, or 0
	next     uint64   // the next unused segment index
	dead     []uint64 // segments below from still under their names
	free     []uint64 // retired segments, ascending
	nextSlot int      // the slot not holding the snapshot recovered
}

// newestSnapshot reads both slots and returns the valid one covering the
// most segments. A slot that fails its checksum is ignored, as if it were
// never written: a crash tears the slot it was overwriting, and the other
// one, with the segments after it, still holds the state. A slot that rots
// after the segments it covers were retired is caught by the segment check
// in scan, which then finds the older slot's successors missing.
func newestSnapshot(fs FS, dir string, entries []os.DirEntry) (state []byte, idx uint64, slot int, ok bool, err error) {
	slot = -1
	for _, e := range entries {
		s, isSlot := parseIdx(e.Name(), snapPrefix, snapSuffix)
		if !isSlot || s > 1 {
			continue
		}
		b, rerr := fs.ReadFile(filepath.Join(dir, e.Name()))
		if rerr != nil {
			return nil, 0, 0, false, &CorruptionError{Dir: dir, File: e.Name(), Offset: -1, Err: rerr}
		}
		payload, _, derr := decodeFrame(b, slotSeed)
		if derr != nil || len(payload) < 8 {
			continue
		}
		if covers := binary.LittleEndian.Uint64(payload); !ok || covers > idx {
			state, idx, slot, ok = payload[8:], covers, int(s), true
		}
	}
	return state, idx, slot, ok, nil
}

// scan reads dir and rebuilds the durable state: the newest valid
// snapshot, then every record in the segments at or after it. Damage
// beyond a torn tail — an unreadable file, a hole in the segment sequence,
// corruption inside a segment — comes back as a *CorruptionError.
func scan(dir string, fs FS) (Recovery, layout, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return Recovery{}, layout{}, err
	}
	var rec Recovery
	var lay layout
	state, from, slot, ok, err := newestSnapshot(fs, dir, entries)
	if err != nil {
		return Recovery{}, layout{}, err
	}
	if ok {
		rec.Snapshot = append([]byte(nil), state...)
		lay.from, lay.nextSlot = from, 1-slot
	}
	lay.next = from
	var segs []uint64
	for _, e := range entries {
		if idx, ok := parseIdx(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, idx)
			lay.next = max(lay.next, idx+1)
		}
		if idx, ok := parseIdx(e.Name(), segPrefix, freeSuffix); ok {
			lay.free = append(lay.free, idx)
			lay.next = max(lay.next, idx+1)
		}
	}
	slices.Sort(segs)
	slices.Sort(lay.free)

	// Segments the snapshot does not supersede must form an unbroken
	// sequence from the snapshot index (from 0 on a never-snapshotted log):
	// a segment is created before a snapshot naming it is written, and only
	// segments below the newest durable snapshot are ever retired, so a
	// hole means a whole file of acknowledged records vanished.
	expect := from
	for i, idx := range segs {
		if idx < from {
			lay.dead = append(lay.dead, idx)
			continue
		}
		if idx != expect {
			return Recovery{}, layout{}, &CorruptionError{Dir: dir, File: segName(expect), Offset: -1,
				Err: fmt.Errorf("segment missing: %w", ErrCorrupt)}
		}
		expect = idx + 1
		records, truncated, err := readSegment(fs, dir, idx, i == len(segs)-1)
		if err != nil {
			return Recovery{}, layout{}, err
		}
		rec.Records = append(rec.Records, records...)
		rec.TruncatedBytes += truncated
	}
	return rec, lay, nil
}

// segmentEnd walks the records of segment idx's bytes and reports where
// they stop: end is the offset of the first byte that is not a record of
// this segment, and sealed whether a seal sits there claiming exactly that
// offset. Frames are the records' extents.
func segmentEnd(b []byte, idx uint64) (frames [][2]int, end int, sealed bool) {
	for end < len(b) {
		_, n, err := decodeFrame(b[end:], segSeed(idx))
		if err != nil {
			break
		}
		frames = append(frames, [2]int{end, n})
		end += n
	}
	if payload, _, err := decodeFrame(b[end:], sealSeed(idx)); err == nil && len(payload) == 8 {
		sealed = binary.LittleEndian.Uint64(payload) == uint64(end)
	}
	return frames, end, sealed
}

// readSegment reads every record of one segment file. The records run to
// the end of the file, or to a seal that names the offset where they stop
// — a sealed segment's file may hold stale bytes beyond it. Anywhere else a
// record that does not check is the end only on the last segment, and only
// when no record of this segment follows it: that is a torn append, or what
// a reused file held before, and it is truncated away. Everything else —
// a non-final segment that stops short of its seal or its end, a bad
// record with a good one after it — is corruption.
func readSegment(fs FS, dir string, idx uint64, last bool) (records [][]byte, truncated int64, err error) {
	name := segName(idx)
	path := filepath.Join(dir, name)
	b, err := fs.ReadFile(path)
	if err != nil {
		return nil, 0, &CorruptionError{Dir: dir, File: name, Offset: -1, Err: err}
	}
	frames, end, sealed := segmentEnd(b, idx)
	for _, fr := range frames {
		records = append(records, append([]byte(nil), b[fr[0]+frameHeaderSize:fr[0]+fr[1]]...))
	}
	if end == len(b) || sealed {
		return records, 0, nil
	}
	_, _, cause := decodeFrame(b[end:], segSeed(idx))
	if last && !recordAfter(b, end, idx) {
		if terr := fs.Truncate(path, int64(end)); terr != nil {
			return nil, 0, terr
		}
		return records, int64(len(b) - end), nil
	}
	if cause == ErrTorn && !last {
		return nil, 0, &CorruptionError{Dir: dir, File: name, Offset: int64(end), Err: ErrTorn}
	}
	return nil, 0, &CorruptionError{Dir: dir, File: name, Offset: int64(end), Err: ErrCorrupt}
}

// recordAfter reports whether a record of segment idx checks anywhere in b
// after offset from.
func recordAfter(b []byte, from int, idx uint64) bool {
	for off := from + 1; off+frameHeaderSize <= len(b); off++ {
		if _, _, err := decodeFrame(b[off:], segSeed(idx)); err == nil {
			return true
		}
	}
	return false
}

// openSegment starts segment idx as the append target, reusing a retired
// file when there is one: renamed to its new name — a rename onto a free
// name frees nothing — and overwritten from its first byte.
func (l *Log) openSegment(idx uint64) error {
	fs, path := l.opts.fs, filepath.Join(l.dir, segName(idx))
	recycled := len(l.free) > 0
	if recycled {
		if err := fs.Rename(filepath.Join(l.dir, freeName(l.free[0])), path); err != nil {
			return err
		}
		l.free = l.free[1:]
		if l.opts.fsync {
			fs.SyncDir(l.dir)
		}
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return err
	}
	l.f, l.segIdx, l.segBytes, l.recycled = f, idx, 0, recycled
	return nil
}

// retire renames dead segment idx to its free name, for reuse.
func (l *Log) retire(idx uint64) error {
	if err := l.opts.fs.Rename(filepath.Join(l.dir, segName(idx)), filepath.Join(l.dir, freeName(idx))); err != nil {
		return err
	}
	l.free = append(l.free, idx)
	return nil
}

// Metrics returns the log's counters.
func (l *Log) Metrics() *Metrics { return &l.m }

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// Append frames payload into the log and returns once it is durable
// (flushed, and fsynced unless WithFsync(false)).
func (l *Log) Append(payload []byte) error {
	ch := make(chan error, 1)
	if err := l.AppendCallback(payload, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// AppendCallback frames payload into the log and returns immediately; fn
// is invoked with the flush outcome once the record is durable, possibly
// on another goroutine and possibly with internal locks held — it must be
// quick and must not call back into the log. Under group commit, callbacks
// fire in append order. The fast return is what lets a single-threaded
// replica actor keep absorbing requests while a flush is in flight — its
// acks ride the next group commit.
func (l *Log) AppendCallback(payload []byte, fn func(error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.pend = appendFrame(l.pend, segSeed(l.tail), payload)
	l.logged += int64(len(payload))
	l.appended++
	l.m.Appends.Inc()
	if fn != nil {
		l.waiters = append(l.waiters, waiter{seq: l.appended, fn: fn})
	}
	return l.kickLocked()
}

func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.err
}

// kickLocked gets a flush round going: per-record durability runs it right
// here, fully serialized under the lock, so every append pays its own disk
// round trip — the baseline group commit exists to beat; group commit
// starts a leader unless one is active.
func (l *Log) kickLocked() error {
	if !l.opts.groupCommit {
		return l.flushRoundLocked(false)
	}
	if !l.flushing {
		l.flushing = true
		go l.flushLoop()
	}
	return nil
}

// flushLoop is the group-commit leader: it flushes everything framed so
// far, fires the covered callbacks, and repeats until no new records
// arrived during the flush, then retires.
func (l *Log) flushLoop() {
	l.mu.Lock()
	for l.err == nil && !l.closed && (l.appended > l.flushed || l.cut != nil) {
		if err := l.flushRoundLocked(true); err != nil {
			break
		}
	}
	l.flushing = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// flushRoundLocked makes every record framed so far durable, fires the
// callbacks it covers and carries out a pending cut: the current segment is
// sealed and synced before any record of the next one is acknowledged, and
// a snapshot the cut carries is written after the round's acknowledgements
// (the next round's wait for it). Called with l.mu held and returns with it held. With
// unlockDuringIO set (the group-commit leader) the file work runs without
// the lock so concurrent appenders keep framing into the next batch; only
// one such caller may be active at a time.
func (l *Log) flushRoundLocked(unlockDuringIO bool) error {
	covered := l.appended
	batch := covered - l.flushed
	buf, c := l.pend, l.cut
	l.pend, l.spare, l.cut = l.spare[:0], nil, nil
	if c == nil && l.segBytes+int64(len(buf)) >= l.opts.segmentBytes {
		// The segment is full: end it with this batch. Records framed from
		// here on are the next segment's.
		c = &cut{at: len(buf)}
		l.tail++
	}
	split := 0
	for split < len(l.waiters) && l.waiters[split].seq <= covered {
		split++
	}
	ws := l.waiters[:split:split]
	l.waiters = l.waiters[split:]

	if unlockDuringIO {
		l.mu.Unlock()
	}
	start := time.Now()
	err := l.writeBatch(buf, c)
	l.m.FlushLatency.ObserveSince(start)
	l.m.Flushes.Inc()
	l.m.BatchSize.Observe(int64(batch))
	for _, w := range ws {
		w.fn(err)
	}
	if err == nil && c != nil && c.state != nil {
		err = l.writeSnapshot(c.state)
	}
	if unlockDuringIO {
		l.mu.Lock()
	}
	l.spare = buf[:0]

	if err != nil {
		l.poisonLocked(err)
		return err
	}
	l.flushed = covered
	if c != nil && c.state != nil {
		l.snapDone = c.gen
	}
	l.cond.Broadcast()
	return nil
}

// writeBatch writes one round's records, switching segments at the cut,
// and syncs them.
func (l *Log) writeBatch(buf []byte, c *cut) error {
	at := len(buf)
	if c != nil {
		at = c.at
	}
	if err := l.write(buf[:at]); err != nil {
		return err
	}
	if c != nil {
		if err := l.rotate(); err != nil {
			return err
		}
		if err := l.write(buf[at:]); err != nil {
			return err
		}
	}
	if l.opts.fsync {
		return l.f.Sync()
	}
	return nil
}

func (l *Log) write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := l.f.Write(b)
	l.segBytes += int64(n)
	return err
}

// rotate seals the current segment — a frame naming the offset its
// records end at, synced — and starts the next.
func (l *Log) rotate() error {
	if err := l.seal(); err != nil {
		return err
	}
	l.m.Rotations.Inc()
	return l.openSegment(l.segIdx + 1)
}

// seal ends the current segment where its records end and closes it.
func (l *Log) seal() error {
	var at [8]byte
	binary.LittleEndian.PutUint64(at[:], uint64(l.segBytes))
	_, err := l.f.Write(appendFrame(nil, sealSeed(l.segIdx), at[:]))
	if err == nil && l.opts.fsync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshot overwrites the older slot with state, covering every
// segment below the current one, and once it is durable retires those
// segments for reuse.
func (l *Log) writeSnapshot(state []byte) error {
	fs := l.opts.fs
	payload := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(state)), l.segIdx)
	f, err := fs.OpenAppend(filepath.Join(l.dir, slotName(l.nextSlot)))
	if err != nil {
		return err
	}
	_, err = f.Write(appendFrame(nil, slotSeed, append(payload, state...)))
	if err == nil && l.opts.fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.nextSlot = 1 - l.nextSlot
	l.m.Snapshots.Inc()
	for ; l.liveFrom < l.segIdx; l.liveFrom++ {
		if err := l.retire(l.liveFrom); err != nil {
			return err
		}
	}
	if l.opts.fsync {
		fs.SyncDir(l.dir)
	}
	return nil
}

// poisonLocked latches the first I/O failure and fails every waiter: a log
// that cannot make records durable must stop acknowledging them.
func (l *Log) poisonLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	for _, w := range l.waiters {
		w.fn(l.err)
	}
	l.waiters = nil
	l.cond.Broadcast()
}

// SnapshotFloor is the least record bytes a log takes between two
// snapshots, however small the state.
const SnapshotFloor = 64 << 10

// snapshotDue is how many record bytes the log in dir takes after a
// snapshot of size bytes before SnapshotDue turns true: as many as the
// snapshot holds (SnapshotFloor, for a smaller one), so replay never reads
// more log than a snapshot would have cost to write — scaled by a factor in
// [0.75, 1.25) fixed by the directory's name. Replicas keep their logs in
// directories named after themselves, and the replicas of an item log the
// same records: they must not all compact at once.
func snapshotDue(dir string, size int) int64 {
	h := fnv.New64a()
	h.Write([]byte(filepath.Base(dir)))
	spread := h.Sum64() * 0x9E3779B97F4A7C15 // a Fibonacci hash: names that differ in one character land far apart
	return int64(float64(max(size, SnapshotFloor)) * (0.75 + float64(spread>>32)/(1<<33)))
}

// SnapshotDue reports whether the records appended since the last snapshot
// — the ones Open replayed included — have outgrown it: the owner should
// encode its state and hand it to Snapshot.
func (l *Log) SnapshotDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logged >= l.due
}

// Snapshot hands the log a snapshot superseding every record appended so
// far and returns at once: the flush leader seals the current segment,
// starts the next with the records appended after this call, and writes
// state into a slot — compaction, off the caller's path. state must reflect
// exactly the records appended before the call (see the Log doc comment)
// and must not be modified afterwards. A snapshot requested while an
// earlier one still waits for its round waits for that round to take it.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.snapshotLocked(state)
	return err
}

func (l *Log) snapshotLocked(state []byte) (uint64, error) {
	for l.cut != nil && l.usableLocked() == nil {
		l.cond.Wait() // the round under way takes the earlier one first
	}
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	l.snaps++
	l.cut = &cut{at: len(l.pend), state: state, gen: l.snaps}
	l.tail++
	l.logged, l.due = 0, snapshotDue(l.dir, len(state))
	return l.snaps, l.kickLocked()
}

// WriteSnapshot is Snapshot, returning once the snapshot is durable and
// the segments it supersedes are retired.
func (l *Log) WriteSnapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	gen, err := l.snapshotLocked(state)
	for err == nil && l.snapDone < gen {
		if err = l.usableLocked(); err == nil {
			l.cond.Wait()
		}
	}
	return err
}

// Sync blocks until every record appended before the call is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appended
	for l.flushed < target {
		if err := l.usableLocked(); err != nil {
			return err
		}
		if !l.flushing {
			l.flushing = true
			go l.flushLoop()
		}
		l.cond.Wait()
	}
	return l.err
}

// Close flushes, syncs and closes the log, writing a snapshot still
// pending. Pending callbacks fire before Close returns. A reused segment is
// sealed, so the next Open need not cut its stale tail away.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for l.flushing {
		l.cond.Wait()
	}
	var err error
	if l.err == nil && (l.appended > l.flushed || l.cut != nil) {
		err = l.flushRoundLocked(false)
	}
	l.closed = true // rejects new appends; wakes WriteSnapshot waiters
	l.cond.Broadcast()
	if l.err != nil && err == nil {
		err = l.err
	}
	if l.err == nil && l.recycled {
		if serr := l.seal(); err == nil {
			err = serr
		}
		return err
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
