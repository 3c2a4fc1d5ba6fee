package wal

import (
	"errors"
	"fmt"
)

// CorruptionError reports unrecoverable damage found while opening a log:
// a CRC mismatch with intact data after it, a torn frame in a non-final
// segment, a gap in the segment sequence (a whole segment missing), or an
// unreadable snapshot. It is distinct from a torn tail — the signature of
// a crash mid-append, which recovery truncates away — because corruption
// means acknowledged records may be missing or altered: the local log can
// no longer be trusted, and the replica's only safe recovery is a rebuild
// from its quorum peers (cluster.RebuildReplica). Callers classify with
// IsCorruption.
type CorruptionError struct {
	// Dir is the log directory.
	Dir string
	// File is the damaged file's base name; empty for structural damage
	// (a missing segment) not attributable to one file.
	File string
	// Offset is the byte offset of the damage within File, -1 when not
	// applicable.
	Offset int64
	// Err is the underlying classification: ErrCorrupt, ErrTorn (torn
	// frame in a non-final segment), the I/O error that exposed the
	// damage, or — from a caller whose records the log stores opaquely —
	// the failure to decode a snapshot or record that checked.
	Err error
}

func (e *CorruptionError) Error() string {
	switch {
	case e.File == "":
		return fmt.Sprintf("wal: %s: %v", e.Dir, e.Err)
	case e.Offset < 0:
		return fmt.Sprintf("wal: %s/%s: %v", e.Dir, e.File, e.Err)
	default:
		return fmt.Sprintf("wal: %s/%s at offset %d: %v", e.Dir, e.File, e.Offset, e.Err)
	}
}

func (e *CorruptionError) Unwrap() error { return e.Err }

// IsCorruption reports whether err means the log's durable state is
// damaged beyond the torn-tail recovery Open performs itself — the
// condition that quarantines a replica and routes it to peer rebuild.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}
