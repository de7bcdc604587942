// Package walfault is a wal.FS over the real file system that fails
// on command, for tests of what the write-ahead log and the DB above
// it do when I/O goes wrong: an fsync error, a full disk, a short
// write, a failed rename, or a process killed in the middle of a
// write. Only tests import it; production opens use the OS directly.
package walfault

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"wcoj/internal/wal"
)

// Op names one file-system operation the log performs.
type Op string

const (
	Open     Op = "open"
	Write    Op = "write"
	Sync     Op = "sync"
	Truncate Op = "truncate"
	Close    Op = "close"
	Rename   Op = "rename"
	SyncDir  Op = "syncdir"
)

// errCrashed is what every operation returns after a simulated crash
// that did not exit the process.
var errCrashed = errors.New("walfault: crashed")

// Fault fails one operation.
type Fault struct {
	Op   Op    // the operation to fail; "" matches every operation
	Skip int   // matching operations let through before the one that fails
	Keep int   // bytes a failed write still writes
	Err  error // the error the operation returns; nil means EIO
}

// FS is a wal.FS that runs every operation on the OS unless an armed
// Fault or the crash budget stops it. The zero value injects nothing.
type FS struct {
	mu     sync.Mutex
	faults []Fault
	trace  []string
	fired  int
	left   int64  // bytes that may still be written before the crash
	crash  func() // nil: no crash armed
	dead   bool
}

// Arm adds f; it fires once.
func (fs *FS) Arm(f Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = append(fs.faults, f)
}

// Crash arranges for a kill at a byte offset: the write that would
// carry the bytes written from now on past n writes only up to n,
// syncs that file, and calls fn, which a crash child sets to exit the
// process. If fn returns, that write and every later operation fail
// with errCrashed.
func (fs *FS) Crash(n int64, fn func()) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.left, fs.crash = n, fn
}

// Trace returns every operation attempted so far, in order, as "op
// name": a file's base name, a rename's target's, a directory sync's
// directory's.
func (fs *FS) Trace() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.trace...)
}

// Fired returns how many armed faults have fired.
func (fs *FS) Fired() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fired
}

// check decides one operation of n bytes (writes) on name. It returns
// how many bytes a write may still write when err is non-nil, and
// whether that write is the crash.
func (fs *FS) check(op Op, name string, n int) (keep int, crash bool, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return 0, false, errCrashed
	}
	base := filepath.Base(name)
	fs.trace = append(fs.trace, string(op)+" "+base)
	for i := range fs.faults {
		f := &fs.faults[i]
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Skip > 0 {
			f.Skip--
			continue
		}
		err := f.Err
		if err == nil {
			err = syscall.EIO
		}
		keep := f.Keep
		fs.faults = append(fs.faults[:i], fs.faults[i+1:]...)
		fs.fired++
		return keep, false, &os.PathError{Op: string(op), Path: base, Err: err}
	}
	if op == Write && fs.crash != nil {
		if int64(n) > fs.left {
			fs.dead = true
			return int(fs.left), true, errCrashed
		}
		fs.left -= int64(n)
	}
	return n, false, nil
}

func (fs *FS) OpenFile(name string, trunc bool) (wal.File, error) {
	if _, _, err := fs.check(Open, name, 0); err != nil {
		return nil, err
	}
	flag := os.O_RDWR | os.O_CREATE
	if trunc {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

func (fs *FS) Rename(oldpath, newpath string) error {
	if _, _, err := fs.check(Rename, newpath, 0); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (fs *FS) SyncDir(dir string) error {
	if _, _, err := fs.check(SyncDir, dir, 0); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// file is one open file of an FS.
type file struct {
	fs *FS
	f  *os.File
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	keep, crash, err := f.fs.check(Write, f.f.Name(), len(p))
	if err == nil {
		return f.f.WriteAt(p, off)
	}
	keep = min(keep, len(p))
	n, _ := f.f.WriteAt(p[:keep], off)
	if crash {
		// Make the torn prefix visible the way a real crash would.
		f.f.Sync()
		f.fs.crash()
	}
	return n, err
}

func (f *file) Sync() error {
	if _, _, err := f.fs.check(Sync, f.f.Name(), 0); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *file) Truncate(size int64) error {
	if _, _, err := f.fs.check(Truncate, f.f.Name(), 0); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

// Close always releases the descriptor, even when it reports a fault.
func (f *file) Close() error {
	_, _, err := f.fs.check(Close, f.f.Name(), 0)
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}
