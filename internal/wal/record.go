// Package wal is a segmented, append-only write-ahead log. Records are
// CRC-framed; opening a log replays the newest durable snapshot plus every
// record appended after it, truncating a torn tail (a record interrupted
// by a crash mid-write) but refusing corruption anywhere else. Appends are
// made durable by group commit: concurrent appenders share fsyncs, with a
// leader flushing the whole batch while followers wait, so throughput
// scales with concurrency instead of paying one disk sync per record.
//
// Compaction frees no disk blocks: a snapshot is written in place into the
// older of two slot files, and the segments it supersedes are renamed aside
// and reused as later segments, overwritten rather than deleted (on a disk
// that discards freed blocks, an unlink stalls the next fsync of any file).
//
// The log stores opaque byte payloads; callers bring their own record
// encoding. The replica layer (internal/cluster) logs its state-mutating
// RPCs before acknowledging them and replays them through the same state
// machine on restart, which is what turns a simulated crash into the
// paper's resilient-object assumption instead of a silent state wipe.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout: a fixed header of two little-endian uint32s — payload
// length, then CRC-32C of the payload — followed by the payload bytes.
const (
	frameHeaderSize = 8
	// MaxRecord bounds a single record's payload. A torn header whose
	// garbage length field exceeds it is detected as corruption instead of
	// being chased past the end of the file.
	MaxRecord = 1 << 26 // 64 MiB
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a frame whose contents contradict its checksum or
// whose header is impossible. A corrupt frame in the interior of a log —
// with intact records after it — is unrecoverable by truncation and fails
// the open.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrTorn reports a frame cut short by the end of input: the signature of
// a crash mid-append. Torn frames are recoverable — Open truncates the
// tail at the last intact record.
var ErrTorn = errors.New("wal: torn record")

// AppendFrame appends the framed encoding of payload to dst and returns
// the extended slice. It is the frame of segment 0; every other segment
// seeds its checksum with its index (see segSeed).
func AppendFrame(dst, payload []byte) []byte { return appendFrame(dst, 0, payload) }

// DecodeFrame decodes the first frame in b, returning the payload and the
// number of bytes the frame occupies. A short buffer yields ErrTorn; an
// impossible length or checksum mismatch yields ErrCorrupt. The returned
// payload aliases b. It reads the frames of segment 0.
func DecodeFrame(b []byte) (payload []byte, n int, err error) { return decodeFrame(b, 0) }

// Checksum seeds. A segment's records are checksummed from its own seed, so
// the bytes a recycled file still holds from an earlier use — frames of a
// lower index — fail the check and read as the end of the segment, never as
// records. A seal and a snapshot slot have seeds of their own, so neither
// can pass for a record. The seed is the CRC's initial value: segment 0's is
// 0, the plain CRC-32C of AppendFrame; the others are the index scrambled
// by a Fibonacci hash, so no index's seed is a small number that zeroed or
// stale bytes could spell.
func segSeed(idx uint64) uint32  { return uint32((idx * 0x9E3779B97F4A7C15) >> 32) }
func sealSeed(idx uint64) uint32 { return segSeed(idx) ^ 0x5EA15EA1 }

const slotSeed = 0x510751E5

func appendFrame(dst []byte, seed uint32, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Update(seed, crcTable, payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func decodeFrame(b []byte, seed uint32) (payload []byte, n int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, ErrTorn
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size > MaxRecord {
		return nil, 0, fmt.Errorf("%w: length %d exceeds MaxRecord", ErrCorrupt, size)
	}
	end := frameHeaderSize + int(size)
	if len(b) < end {
		return nil, 0, ErrTorn
	}
	payload = b[frameHeaderSize:end]
	if crc32.Update(seed, crcTable, payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, ErrCorrupt
	}
	return payload, end, nil
}
