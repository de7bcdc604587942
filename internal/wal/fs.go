package wal

import (
	"errors"
	"os"
	"syscall"
)

// FS is the file system the log writes through: opening a file,
// renaming one into place, and syncing a directory so that renames and
// creates survive an OS crash. Reads (recovery's scan) and the
// best-effort removal of dead generations go to the OS directly.
// Open uses the OS; tests pass their own FS to OpenFS to inject I/O
// faults below the log.
type FS interface {
	// OpenFile opens name read-write, creating it if it is absent and
	// truncating it when trunc is set.
	OpenFile(name string, trunc bool) (File, error)
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
}

// File is one open file the log writes: a segment or a snapshot's
// temporary file.
type File interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the production FS.
type osFS struct{}

func (osFS) OpenFile(name string, trunc bool) (File, error) {
	flag := os.O_RDWR | os.O_CREATE
	if trunc {
		flag |= os.O_TRUNC
	}
	return os.OpenFile(name, flag, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir fsyncs dir. A file system that cannot sync directories
// (EINVAL) counts as synced: there is nothing more to make durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
