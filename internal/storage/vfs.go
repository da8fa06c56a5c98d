// Package storage is the crash-safe persistence layer: a record-framed,
// journaled store (periodic full snapshots plus an append-only delta
// journal, compacted past a threshold) built over a minimal virtual
// filesystem so the disk can be made exactly as adversarial as the
// network. The paper's §2.3 caching servers exist so a restarted
// directory comes back with a complete picture; this package is what
// makes that picture survive torn writes, failing fsyncs, full disks
// and kill -9 — the MANET-style churn regime (PAPERS.md) where
// restart-from-state is the common case, not the exception.
//
// Three FS implementations share the interface: OSFS (the real disk),
// MemFS (an in-memory disk with an explicit durability model and a
// Crash operation), and FaultFS (a deterministic fault injector whose
// k-th operation's fate is a pure function of its seed — the same
// determinism contract internal/relay gives the network).
package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one open file. Write handles append (the store never seeks);
// read handles stream from the start. Sync must not return until the
// file's content is durable — every crash-safety argument in this
// package leans on that.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// FS is the minimal filesystem surface the store needs: a single flat
// directory of named files. Keeping it this small is what makes the
// fault matrix enumerable — every operation below is a crash point and
// a fault-injection point.
//
// Durability contract (what OSFS provides and MemFS models):
//
//   - File.Sync makes that file's current content durable.
//   - SyncRoot makes the namespace (creates, renames, removes) durable.
//   - Rename atomically replaces the destination.
//   - Nothing else is durable: unsynced writes and unsynced namespace
//     operations may vanish — in whole or in part — at a crash.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name read-only. A missing file reports an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	Open(name string) (File, error)
	// Rename atomically renames oldname to newname, replacing newname.
	Rename(oldname, newname string) error
	// Remove deletes name (missing files report fs.ErrNotExist).
	Remove(name string) error
	// List returns the names in the root, sorted.
	List() ([]string, error)
	// SyncRoot makes namespace operations durable (fsync of the
	// directory on a real filesystem).
	SyncRoot() error
}

// validName rejects path traversal: the FS is one flat directory, and a
// name with a separator would silently escape it on OSFS.
func validName(name string) error {
	if name == "" || name == "." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("storage: bad file name %q", name)
	}
	return nil
}

// OSFS is the real disk: one directory, operations mapped 1:1 onto the
// os package. The zero value is unusable; use NewOSFS.
type OSFS struct {
	dir string
}

// NewOSFS returns an FS rooted at dir (which must already exist — the
// store does not manage directories, only files within one).
func NewOSFS(dir string) *OSFS { return &OSFS{dir: dir} }

func (o *OSFS) path(name string) string { return filepath.Join(o.dir, name) }

// Create implements FS.
func (o *OSFS) Create(name string) (File, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return os.OpenFile(o.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Open implements FS.
func (o *OSFS) Open(name string) (File, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return os.Open(o.path(name))
}

// Rename implements FS.
func (o *OSFS) Rename(oldname, newname string) error {
	if err := validName(oldname); err != nil {
		return err
	}
	if err := validName(newname); err != nil {
		return err
	}
	return os.Rename(o.path(oldname), o.path(newname))
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	return os.Remove(o.path(name))
}

// List implements FS.
func (o *OSFS) List() ([]string, error) {
	ents, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncRoot implements FS. Some filesystems refuse directory syncs; that
// is reported, and the caller decides whether the failure is fatal (the
// store treats it like any other sync failure: the operation did not
// become durable).
func (o *OSFS) SyncRoot() error {
	d, err := os.Open(o.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// readAll drains a File and closes it, preferring the read error over
// the close error (the close error on a read-only handle is noise). A
// File that can say how large it is (*os.File, MemFS's files) is read
// into one buffer of that size; io.ReadAll would grow one about twenty
// times on the way to a 400 kB snapshot.
func readAll(f File) ([]byte, error) {
	var data []byte
	var err error
	if st, ok := f.(interface{ Stat() (fs.FileInfo, error) }); ok {
		data, err = readSized(f, st)
	} else {
		data, err = io.ReadAll(f)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return data, err
}

// readSized reads f to its end into a buffer of the size st reports, with
// a byte to spare for the read that finds the end: os.ReadFile's loop. A
// file longer than it said grows the buffer as append does.
func readSized(f File, st interface{ Stat() (fs.FileInfo, error) }) ([]byte, error) {
	info, err := st.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, 0, info.Size()+1)
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// notExist reports whether err means "no such file" across FS
// implementations.
func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// DiscardFS is a disk that keeps nothing and holds no file: every write
// succeeds and is gone. A store over it costs only its own work, which is
// what a measurement of the store or its caller wants to count.
type DiscardFS struct{}

// Create implements FS.
func (DiscardFS) Create(string) (File, error) { return discardFile{}, nil }

// Open implements FS: no file exists.
func (DiscardFS) Open(name string) (File, error) {
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

// Rename implements FS.
func (DiscardFS) Rename(string, string) error { return nil }

// Remove implements FS.
func (DiscardFS) Remove(string) error { return nil }

// List implements FS.
func (DiscardFS) List() ([]string, error) { return nil, nil }

// SyncRoot implements FS.
func (DiscardFS) SyncRoot() error { return nil }

type discardFile struct{}

func (discardFile) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }
