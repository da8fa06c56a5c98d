package storage

import (
	"errors"
	"io"
	"io/fs"
	"sort"
	"sync"
	"time"

	"sessiondir/internal/stats"
)

// CrashMode selects what a simulated crash does to data that was
// written but not yet synced.
type CrashMode int

const (
	// CrashLoseUnsynced drops everything past each file's last Sync and
	// every namespace operation since the last SyncRoot — the most
	// adversarial outcome the durability contract permits.
	CrashLoseUnsynced CrashMode = iota //mclint:unused names the zero CrashMode; storage's tests crash with it
	// CrashKeepUnsynced keeps all written data (the kernel happened to
	// flush everything) while still reverting unsynced namespace
	// operations. Recovery must accept this too: a crash may preserve
	// more than was promised, never less.
	CrashKeepUnsynced
	// CrashTornTail keeps a seeded prefix of each file's unsynced
	// suffix, possibly with a flipped bit in the last retained byte —
	// the classic torn write. Recovery must classify this as a normal
	// truncated tail, not corruption.
	CrashTornTail
	// CrashKeepNamespace keeps every namespace operation (as if the
	// directory hit the platters early) while each file's content
	// reverts to its synced prefix — the classic rename-before-data
	// hazard. A writer that renames a file into place before syncing
	// its content is caught by exactly this mode.
	CrashKeepNamespace
)

// memInode is one file's content. Handles reference inodes, not names,
// so a handle kept across a Rename (the store keeps its journal handle
// open while rotating files) stays valid — exactly as on a POSIX disk.
type memInode struct {
	data   []byte
	synced int // durable prefix length, advanced only by Sync
}

// MemFS is an in-memory FS with an explicit durability model: file
// content becomes durable at Sync, namespace operations (create,
// rename, remove) at SyncRoot, and Crash reverts everything else. It is
// the reference disk for the crash-point torture harness — every state
// a real disk may present after power loss, MemFS can present on
// demand, deterministically.
type MemFS struct {
	mu  sync.Mutex
	cur map[string]*memInode // live namespace
	dur map[string]*memInode // namespace as of the last SyncRoot
	gen int                  // bumped by Crash; outstanding handles go stale
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{cur: make(map[string]*memInode), dur: make(map[string]*memInode)}
}

type memFile struct {
	fs    *MemFS
	inode *memInode
	gen   int
	off   int // read offset
	wr    bool
}

var errStaleHandle = errors.New("storage: file handle stale after simulated crash")

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := &memInode{}
	m.cur[name] = ino
	return &memFile{fs: m, inode: ino, gen: m.gen, wr: true}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.cur[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{fs: m, inode: ino, gen: m.gen}, nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	if err := validName(oldname); err != nil {
		return err
	}
	if err := validName(newname); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.cur[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.cur[newname] = ino
	delete(m.cur, oldname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.cur, name)
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.cur))
	for name := range m.cur {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// SyncRoot implements FS: the current namespace becomes the durable
// namespace. Content durability is per-inode and unaffected.
func (m *MemFS) SyncRoot() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dur := make(map[string]*memInode, len(m.cur))
	for name, ino := range m.cur {
		dur[name] = ino
	}
	m.dur = dur
	return nil
}

// Crash simulates power loss and reboot: the namespace reverts to the
// last SyncRoot, and each surviving file's content reverts according to
// mode. The outcome is a pure function of (state, mode, seed) — the
// torn-tail lengths and bit flips come from a stats.RNG seeded here,
// never from ambient randomness. Outstanding handles become stale and
// error on use; reopen after recovery, as a real process restart would.
func (m *MemFS) Crash(mode CrashMode, seed uint64) { //mclint:unused storage's crash-point and store tests simulate a crash with it
	m.mu.Lock()
	defer m.mu.Unlock()
	if seed == 0 {
		seed = 1 // stats.NewRNG(0) means "default stream"; keep crashes seed-distinct
	}
	rng := stats.NewRNG(seed)
	// CrashKeepNamespace survives on the live namespace; every other
	// mode reverts to the last SyncRoot.
	src := m.dur
	if mode == CrashKeepNamespace {
		src = m.cur
	}
	// Deterministic iteration: draw per-file fates in sorted-name order
	// so the same seed always tears the same tails.
	names := make([]string, 0, len(src))
	for name := range src {
		names = append(names, name)
	}
	sort.Strings(names)
	cur := make(map[string]*memInode, len(names))
	for _, name := range names {
		ino := src[name]
		keep := ino.synced
		switch mode {
		case CrashKeepUnsynced:
			keep = len(ino.data)
		case CrashTornTail:
			if n := len(ino.data) - ino.synced; n > 0 {
				keep = ino.synced + rng.IntN(n+1)
			}
		}
		data := append([]byte(nil), ino.data[:keep]...)
		if mode == CrashTornTail && keep > ino.synced && rng.Bool(0.5) {
			data[keep-1] ^= 1 << uint(rng.IntN(8)) // garbage in the torn tail
		}
		cur[name] = &memInode{data: data, synced: len(data)}
	}
	m.cur = cur
	m.dur = cur
	m.gen++
}

// ReadFile is a test convenience: the current content of name.
func (m *MemFS) ReadFile(name string) ([]byte, error) { //mclint:unused pinned by benchmark/dirscript.go
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.cur[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), ino.data...), nil
}

// WriteFile is a test convenience: name gets content, fully durable (as
// if written, synced, and root-synced).
func (m *MemFS) WriteFile(name string, data []byte) error { //mclint:unused pinned by benchmark/dirscript.go
	if err := validName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := &memInode{data: append([]byte(nil), data...)}
	ino.synced = len(ino.data)
	m.cur[name] = ino
	m.dur[name] = ino
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.gen != f.fs.gen {
		return 0, errStaleHandle
	}
	if !f.wr {
		return 0, errors.New("storage: write on read-only handle")
	}
	f.inode.data = append(f.inode.data, p...)
	return len(p), nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.gen != f.fs.gen {
		return 0, errStaleHandle
	}
	if f.off >= len(f.inode.data) {
		return 0, io.EOF
	}
	n := copy(p, f.inode.data[f.off:])
	f.off += n
	return n, nil
}

// Stat reports the file's size: what readAll sizes its buffer by.
func (f *memFile) Stat() (fs.FileInfo, error) { //mclint:unused readAll finds it by type assertion, which the analyzer does not follow
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.gen != f.fs.gen {
		return nil, errStaleHandle
	}
	return memFileInfo{size: int64(len(f.inode.data))}, nil
}

// memFileInfo is a MemFS file's size as fs.FileInfo; the store reads
// nothing else of it.
type memFileInfo struct{ size int64 }

func (i memFileInfo) Name() string       { return "" }
func (i memFileInfo) Size() int64        { return i.size }
func (i memFileInfo) Mode() fs.FileMode  { return 0o644 }
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return false }
func (i memFileInfo) Sys() any           { return nil }

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.gen != f.fs.gen {
		return errStaleHandle
	}
	f.inode.synced = len(f.inode.data)
	return nil
}

func (f *memFile) Close() error { return nil }
