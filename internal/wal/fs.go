package wal

import (
	"io"
	"os"
)

// FS is the filesystem seam the log runs on. Every byte the log reads or
// writes goes through one of these methods, so a test (or a chaos
// campaign) can substitute a fault-injecting implementation — see FaultFS
// — while production uses the operating system directly via OSFS. The
// interface is deliberately path-based and minimal: the log's access
// pattern is write-one-file-at-a-time from its first byte plus whole-file
// reads at recovery, and a smaller seam is a smaller surface to inject
// faults through. Nothing the log does while serving frees disk blocks:
// it never removes a file, truncates one only while recovering a torn
// tail at Open, and renames only onto names that do not exist.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]os.DirEntry, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// WriteFile writes the whole file (fault injection at rest).
	WriteFile(path string, data []byte, perm os.FileMode) error
	// OpenAppend opens path for writing from its first byte, creating it
	// if missing and never truncating it: a segment, fresh or reused, or a
	// snapshot slot, each overwritten in place. The log owns the returned
	// handle until Close.
	OpenAppend(path string) (File, error)
	// Truncate cuts path to size bytes (torn-tail recovery).
	Truncate(path string, size int64) error
	// Rename atomically moves a file (retiring a segment, reusing one).
	Rename(oldpath, newpath string) error
	// Remove deletes a file. The log itself never does.
	Remove(path string) error
	// SyncFile fsyncs path by opening it read-write.
	SyncFile(path string) error
	// SyncDir fsyncs a directory so renames within it are durable; best
	// effort, as not every filesystem supports it.
	SyncDir(dir string)
}

// File is an open handle on a segment or a snapshot slot; writes advance
// from its first byte.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage.
	Sync() error
	// Close closes the handle.
	Close() error
}

// OSFS is the production filesystem: direct OS calls, no indirection.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)        { return os.ReadFile(path) }
func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}
func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
}
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error               { return os.Remove(path) }
func (osFS) SyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
func (osFS) SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
