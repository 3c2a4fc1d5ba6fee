package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecord drives the frame codec with arbitrary bytes, interpreted two
// ways: as a raw byte stream handed to the decoder (must never panic, and
// must classify every failure as torn or corrupt), and as a payload to
// round-trip (encode → decode must be the identity, and any strict prefix
// of the encoding must read as torn, never as a different valid record).
func FuzzRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello, wal"))
	f.Add(AppendFrame(nil, []byte("framed")))
	f.Add(AppendFrame(AppendFrame(nil, []byte("a")), []byte("b")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary input: decode must return a valid frame or a typed
		// error — no panics, no silent successes on bad checksums.
		payload, n, err := DecodeFrame(data)
		switch {
		case err == nil:
			if n < frameHeaderSize || n > len(data) {
				t.Fatalf("frame length %d out of bounds (input %d)", n, len(data))
			}
			// Re-encoding what we decoded must reproduce the input frame
			// bit for bit; otherwise two distinct frames collide.
			if !bytes.Equal(AppendFrame(nil, payload), data[:n]) {
				t.Fatalf("decode/encode mismatch on %x", data[:n])
			}
		case errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
			// Classified failure: fine.
		default:
			t.Fatalf("unclassified decode error: %v", err)
		}

		// Treat the input as a payload: round-trip identity.
		frame := AppendFrame(nil, data)
		got, n2, err := DecodeFrame(frame)
		if err != nil || n2 != len(frame) || !bytes.Equal(got, data) {
			t.Fatalf("round-trip failed: n=%d err=%v", n2, err)
		}
		// Every strict prefix must read as torn — a truncated frame must
		// error, never decode as some other valid record. (Skip-and-
		// continue past a valid record is impossible when truncation is
		// always detected.)
		for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize, len(frame) - 1} {
			if cut >= len(frame) || cut < 0 {
				continue
			}
			if _, _, err := DecodeFrame(frame[:cut]); !errors.Is(err, ErrTorn) {
				t.Fatalf("prefix of %d/%d bytes decoded with err=%v, want ErrTorn", cut, len(frame), err)
			}
		}
	})
}

// FuzzSegment drives whole-segment recovery with arbitrary segment
// contents, interpreted two ways. As the FINAL segment, a damaged tail
// may be truncated away but recovery must return exactly the clean frame
// prefix — never a record from beyond the first damage. As a NON-FINAL
// segment (an intact segment follows it), any damage at all must fail the
// open as corruption: truncate-and-continue is only sound where a torn
// append could have happened. Either way, recovery must never panic. The
// corpus seeds include segments damaged by the seeded FaultFS.
func FuzzSegment(f *testing.F) {
	var clean []byte
	for i := 0; i < 5; i++ {
		clean = AppendFrame(clean, []byte(fmt.Sprintf("record-%d", i)))
	}
	f.Add([]byte{})
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn tail
	flip := append([]byte(nil), clean...)
	flip[9] ^= 1 // interior bit rot
	f.Add(flip)

	// FaultFS-generated damage: a real multi-segment log, one seeded bit
	// flip, and the damaged segment's bytes join the corpus.
	seedDir := f.TempDir()
	l, _, err := Open(seedDir, WithFsync(false), WithSegmentBytes(64))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := l.Append([]byte(fmt.Sprintf("faultfs-seed-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	ffs := NewFaultFS(0xD15C)
	if name, _, ok, err := ffs.CorruptSegmentFrame(seedDir); err == nil && ok {
		if b, err := os.ReadFile(filepath.Join(seedDir, name)); err == nil {
			f.Add(b)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The clean frame prefix of data: what a correct recovery may
		// return, and one frame fewer than which it must never return.
		var prefix [][]byte
		damaged := false
		off := 0
		for off < len(data) {
			payload, n, err := DecodeFrame(data[off:])
			if err != nil {
				damaged = true
				break
			}
			prefix = append(prefix, append([]byte(nil), payload...))
			off += n
		}

		check := func(rec Recovery, wantLen int, ctx string) {
			t.Helper()
			if len(rec.Records) != wantLen {
				t.Fatalf("%s: recovered %d records, want %d", ctx, len(rec.Records), wantLen)
			}
			for i := 0; i < wantLen && i < len(prefix); i++ {
				if !bytes.Equal(rec.Records[i], prefix[i]) {
					t.Fatalf("%s: record %d = %q, want %q", ctx, i, rec.Records[i], prefix[i])
				}
			}
		}

		// Interpretation 1: data is the final (and only) segment.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, WithFsync(false))
		if err == nil {
			l.Close()
			check(rec, len(prefix), "final segment")
			if damaged && rec.TruncatedBytes == 0 {
				t.Fatal("final segment: damage neither truncated nor reported")
			}
		} else if !IsCorruption(err) {
			t.Fatalf("final segment: unclassified open error: %v", err)
		}

		// Interpretation 2: data is a non-final segment — an intact
		// successor follows, so nothing in data may be torn.
		dir2 := t.TempDir()
		sentinel := []byte("sentinel-after-damage")
		if err := os.WriteFile(filepath.Join(dir2, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, segName(1)), appendFrame(nil, segSeed(1), sentinel), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec2, err := Open(dir2, WithFsync(false))
		switch {
		case err == nil:
			l2.Close()
			if damaged {
				t.Fatal("non-final segment: open skipped past damage")
			}
			check(rec2, len(prefix)+1, "non-final segment")
			if !bytes.Equal(rec2.Records[len(prefix)], sentinel) {
				t.Fatalf("non-final segment: last record %q, want sentinel", rec2.Records[len(prefix)])
			}
		case IsCorruption(err):
			if !damaged {
				t.Fatalf("non-final segment: clean data rejected: %v", err)
			}
		default:
			t.Fatalf("non-final segment: unclassified open error: %v", err)
		}
	})
}
