package storage

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"sessiondir/internal/stats"
)

// Injected fault sentinels. They wrap into the errors the store
// reports, so callers (and tests) can classify with errors.Is.
var (
	// ErrInjectedIO is a simulated EIO: the device rejected the
	// operation.
	ErrInjectedIO = errors.New("storage: injected I/O error")
	// ErrInjectedNoSpace is a simulated ENOSPC: the disk is full.
	ErrInjectedNoSpace = errors.New("storage: injected no-space error")
	// ErrCrashed is returned by every operation at and after a FaultFS
	// crash point: the process is "dead" as far as the disk is
	// concerned, and nothing further reaches it.
	ErrCrashed = errors.New("storage: simulated crash")
)

// FaultProfile sets the per-operation fault probabilities. Zero value =
// no faults. The draw order per operation is fixed (see opFate), so a
// profile change never shifts which random draw feeds which decision —
// the same determinism discipline as relay.Profile.
type FaultProfile struct {
	// WriteErr is the probability a Write fails outright with EIO,
	// having written nothing.
	WriteErr float64
	// ShortWrite is the probability a Write persists only a seeded
	// prefix of the buffer and then fails with EIO — the torn-frame
	// case the record format must classify as a normal tail.
	ShortWrite float64
	// NoSpace is the probability a Write fails with ENOSPC, having
	// written nothing.
	NoSpace float64
	// SyncErr is the probability a Sync or SyncRoot fails; the data is
	// NOT durable afterwards (the post-fsync-failure page state is
	// undefined on real kernels, so the model takes the worst case).
	SyncErr float64
	// MetaErr is the probability a namespace operation (Create, Open,
	// Rename, Remove, List) fails with EIO.
	MetaErr float64
	// ReadErr is the probability a Read fails with EIO.
	ReadErr float64
}

// FaultFS wraps an FS and injects faults on a deterministic schedule:
// the k-th fallible operation's fate is a pure function of (seed,
// profile) — same seed, same profile, same op sequence ⇒ bit-identical
// fates. A crash point set with SetCrashAfter(k) lets the first k
// operations through and fails everything after with ErrCrashed; pair
// it with MemFS.Crash to model the reboot.
type FaultFS struct {
	under FS

	mu    sync.Mutex
	rng   *stats.RNG
	prof  FaultProfile
	ops   int64
	crash int64 // ops allowed before the crash point; -1 = never
	dead  bool
	fates []string // per-op outcomes, for replay-identity tests
}

// ParseFaultSpec parses a command-line fault schedule of the form
// "seed=7,write=0.02,short=0.01,nospace=0.01,sync=0.05,meta=0,read=0"
// (every field optional; probabilities in [0,1]). This is the
// -storage-faults flag syntax shared by sdrd and the chaos harnesses.
func ParseFaultSpec(spec string) (seed uint64, prof FaultProfile, err error) {
	seed = 1
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return 0, prof, fmt.Errorf("storage: fault spec field %q: want key=value", field)
		}
		if k == "seed" {
			seed, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, prof, fmt.Errorf("storage: fault spec seed %q: %w", v, err)
			}
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || !(p >= 0 && p <= 1) { // written so that NaN fails: rng.Bool(NaN) never fires
			return 0, prof, fmt.Errorf("storage: fault spec %s=%q: want a probability in [0,1]", k, v)
		}
		switch k {
		case "write":
			prof.WriteErr = p
		case "short":
			prof.ShortWrite = p
		case "nospace":
			prof.NoSpace = p
		case "sync":
			prof.SyncErr = p
		case "meta":
			prof.MetaErr = p
		case "read":
			prof.ReadErr = p
		default:
			return 0, prof, fmt.Errorf("storage: unknown fault spec key %q", k)
		}
	}
	return seed, prof, nil
}

// NewFaultFS wraps under with the given fault schedule. A zero seed is
// remapped to 1 (stats.NewRNG(0) selects a fixed default stream, which
// would alias distinct schedules).
func NewFaultFS(under FS, seed uint64, prof FaultProfile) *FaultFS {
	if seed == 0 {
		seed = 1
	}
	return &FaultFS{under: under, rng: stats.NewRNG(seed), prof: prof, crash: -1}
}

// SetProfile swaps the fault schedule mid-run — e.g. to model a disk
// that fails for a while and then recovers. Determinism is preserved:
// fates remain a pure function of (seed, profile sequence, op
// sequence).
func (f *FaultFS) SetProfile(prof FaultProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prof = prof
}

// SetCrashAfter arms the crash point: the next n operations may
// proceed (still subject to fault draws), and every operation after
// them returns ErrCrashed. n = 0 crashes immediately; a negative n
// disarms.
func (f *FaultFS) SetCrashAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crash = n
	if n >= 0 && f.ops >= n {
		f.dead = true
	}
}

// Ops returns how many fallible operations have been attempted —
// including ones that drew a fault or hit the crash point. Run a
// scenario once without a crash point to size a crash-point sweep.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash point has been reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// Fates returns the recorded outcome of every operation so far, in
// order — the replay-identity witness: two same-seed runs over the same
// op sequence must return identical slices.
func (f *FaultFS) Fates() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.fates...)
}

// fate decides one operation's outcome. kind selects which profile
// draws apply; the draws happen in a fixed order with the relay-style
// p > 0 guard so a disabled fault consumes no randomness. n is the
// write length (for the short-write prefix draw). Returns the number of
// bytes to let through (writes only) and the injected error, if any.
func (f *FaultFS) fate(kind string, n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.dead || (f.crash >= 0 && f.ops > f.crash) {
		f.dead = true
		f.fates = append(f.fates, kind+":crashed")
		return 0, ErrCrashed
	}
	fail := func(tag string, err error) (int, error) {
		f.fates = append(f.fates, kind+":"+tag)
		return 0, fmt.Errorf("storage: op %d (%s): %w", f.ops, kind, err)
	}
	switch kind {
	case "write":
		if f.prof.WriteErr > 0 && f.rng.Bool(f.prof.WriteErr) {
			return fail("eio", ErrInjectedIO)
		}
		if f.prof.NoSpace > 0 && f.rng.Bool(f.prof.NoSpace) {
			return fail("enospc", ErrInjectedNoSpace)
		}
		if f.prof.ShortWrite > 0 && f.rng.Bool(f.prof.ShortWrite) && n > 0 {
			keep := f.rng.IntN(n)
			f.fates = append(f.fates, fmt.Sprintf("write:short:%d", keep))
			return keep, fmt.Errorf("storage: op %d (write): short write %d/%d: %w", f.ops, keep, n, ErrInjectedIO)
		}
	case "sync", "syncroot":
		if f.prof.SyncErr > 0 && f.rng.Bool(f.prof.SyncErr) {
			return fail("eio", ErrInjectedIO)
		}
	case "read":
		if f.prof.ReadErr > 0 && f.rng.Bool(f.prof.ReadErr) {
			return fail("eio", ErrInjectedIO)
		}
	default: // create, open, rename, remove, list
		if f.prof.MetaErr > 0 && f.rng.Bool(f.prof.MetaErr) {
			return fail("eio", ErrInjectedIO)
		}
	}
	f.fates = append(f.fates, kind+":ok")
	return n, nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if _, err := f.fate("create", 0); err != nil {
		return nil, err
	}
	under, err := f.under.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, under: under}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if _, err := f.fate("open", 0); err != nil {
		return nil, err
	}
	under, err := f.under.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, under: under}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if _, err := f.fate("rename", 0); err != nil {
		return err
	}
	return f.under.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if _, err := f.fate("remove", 0); err != nil {
		return err
	}
	return f.under.Remove(name)
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) {
	if _, err := f.fate("list", 0); err != nil {
		return nil, err
	}
	return f.under.List()
}

// SyncRoot implements FS.
func (f *FaultFS) SyncRoot() error {
	if _, err := f.fate("syncroot", 0); err != nil {
		return err
	}
	return f.under.SyncRoot()
}

type faultFile struct {
	fs    *FaultFS
	under File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	keep, err := ff.fs.fate("write", len(p))
	if err != nil {
		if keep > 0 {
			// Short write: the prefix really lands on the underlying
			// disk before the error surfaces.
			if n, werr := ff.under.Write(p[:keep]); werr != nil {
				return n, werr
			}
		}
		return keep, err
	}
	return ff.under.Write(p)
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if _, err := ff.fs.fate("read", 0); err != nil {
		return 0, err
	}
	return ff.under.Read(p)
}

func (ff *faultFile) Sync() error {
	if _, err := ff.fs.fate("sync", 0); err != nil {
		return err
	}
	return ff.under.Sync()
}

// Close is not a fault point: close errors on these handles carry no
// durability meaning (Sync is the durability barrier), and a crashed
// FaultFS must still let recovery code drop its old handles.
func (ff *faultFile) Close() error { return ff.under.Close() }
