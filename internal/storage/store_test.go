package storage

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// collector accumulates replayed payloads as strings.
type collector struct{ recs []string }

func (c *collector) replay(p []byte) error {
	c.recs = append(c.recs, string(p))
	return nil
}

func mustOpen(t *testing.T, fsys FS, base string, opts OpenOptions) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(fsys, base, opts)
	if err != nil {
		t.Fatalf("Open: %v (recovery: %+v)", err, rec)
	}
	return s, rec
}

func compactWith(t *testing.T, s *Store, payloads ...string) {
	t.Helper()
	err := s.Compact(func(add func([]byte) error) error {
		for _, p := range payloads {
			if err := add([]byte(p)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	fs := NewMemFS()
	s, rec := mustOpen(t, fs, "cache", OpenOptions{Replay: (&collector{}).replay})
	if rec.SnapshotRecords+rec.JournalRecords != 0 {
		t.Fatalf("fresh dir replayed records: %+v", rec)
	}
	if err := s.Append([]byte("early")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Append before first Compact = %v, want ErrUnavailable", err)
	}
	compactWith(t, s, "snap-a", "snap-b")
	if err := s.Append([]byte("delta-1"), []byte("delta-2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Append([]byte("delta-3")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := s.JournalRecords(); got != 3 {
		t.Fatalf("JournalRecords = %d, want 3", got)
	}
	s.Close()

	var c collector
	s2, rec2 := mustOpen(t, fs, "cache", OpenOptions{Replay: c.replay})
	want := []string{"snap-a", "snap-b", "delta-1", "delta-2", "delta-3"}
	if !reflect.DeepEqual(c.recs, want) {
		t.Fatalf("replayed %v, want %v", c.recs, want)
	}
	if rec2.SnapshotRecords != 2 || rec2.JournalRecords != 3 {
		t.Fatalf("recovery counts: %+v", rec2)
	}
	if rec2.TornTails != 0 || rec2.Corrupt != 0 || len(rec2.Quarantined) != 0 {
		t.Fatalf("clean reopen reported damage: %+v", rec2)
	}
	// Compacting folds the journal in and empties it.
	compactWith(t, s2, append(want, "")...)
	if got := s2.JournalRecords(); got != 0 {
		t.Fatalf("JournalRecords after compact = %d, want 0", got)
	}
	if g := s2.Gen(); g != 2 {
		t.Fatalf("Gen = %d, want 2", g)
	}
}

func TestStoreTornJournalTailIsNormal(t *testing.T) {
	fs := NewMemFS()
	s, _ := mustOpen(t, fs, "cache", OpenOptions{Replay: (&collector{}).replay})
	compactWith(t, s, "base")
	if err := s.Append([]byte("keep-1"), []byte("keep-2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("lost-tail")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the last record: drop its final 3 bytes.
	data, err := fs.ReadFile("cache.journal")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("cache.journal", data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}

	var c collector
	_, rec := mustOpen(t, fs, "cache", OpenOptions{Replay: c.replay})
	want := []string{"base", "keep-1", "keep-2"}
	if !reflect.DeepEqual(c.recs, want) {
		t.Fatalf("replayed %v, want %v", c.recs, want)
	}
	if rec.TornTails != 1 || rec.Corrupt != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("torn tail misclassified: %+v", rec)
	}
}

func TestStoreCorruptSnapshotQuarantined(t *testing.T) {
	fs := NewMemFS()
	s, _ := mustOpen(t, fs, "cache", OpenOptions{Replay: (&collector{}).replay})
	compactWith(t, s, "aaaa", "bbbb", "cccc")
	s.Close()

	// Flip a payload byte in the middle record: mid-file CRC mismatch.
	data, err := fs.ReadFile("cache")
	if err != nil {
		t.Fatal(err)
	}
	mid := headerLen + frameOverhead + 4 + frameOverhead // first byte of record 2
	data[mid] ^= 0xff
	if err := fs.WriteFile("cache", data); err != nil {
		t.Fatal(err)
	}

	var c collector
	s2, rec := mustOpen(t, fs, "cache", OpenOptions{Replay: c.replay})
	if !reflect.DeepEqual(c.recs, []string{"aaaa"}) {
		t.Fatalf("salvaged %v, want [aaaa]", c.recs)
	}
	if rec.Corrupt != 1 || rec.Salvaged != 1 {
		t.Fatalf("corruption counts: %+v", rec)
	}
	if !reflect.DeepEqual(rec.Quarantined, []string{"cache.corrupt-1"}) {
		t.Fatalf("Quarantined = %v", rec.Quarantined)
	}
	if _, err := fs.ReadFile("cache.corrupt-1"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The store keeps working after quarantine; the next incident gets
	// the next quarantine slot.
	compactWith(t, s2, "aaaa")
	s2.Close()
	data, _ = fs.ReadFile("cache")
	data[headerLen+frameOverhead] ^= 0x01
	extra := appendFrame(nil, []byte("x")) // damage is now mid-file
	fs.WriteFile("cache", append(data, extra...))
	_, rec = mustOpen(t, fs, "cache", OpenOptions{Replay: (&collector{}).replay})
	if !reflect.DeepEqual(rec.Quarantined, []string{"cache.corrupt-2"}) {
		t.Fatalf("second quarantine = %v (recovery %+v)", rec.Quarantined, rec)
	}
}

func TestStoreStaleJournalDiscarded(t *testing.T) {
	fs := NewMemFS()
	s, _ := mustOpen(t, fs, "cache", OpenOptions{Replay: (&collector{}).replay})
	compactWith(t, s, "old")
	if err := s.Append([]byte("folded-in")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the crash window between Compact's snapshot rename and
	// journal rotation: a newer snapshot lands, the gen-1 journal stays.
	snap := appendHeader(nil, kindSnapshot, 2)
	snap = appendFrame(snap, []byte("new-a"))
	snap = appendFrame(snap, []byte("folded-in"))
	if err := fs.WriteFile("cache", snap); err != nil {
		t.Fatal(err)
	}

	var c collector
	_, rec := mustOpen(t, fs, "cache", OpenOptions{Replay: c.replay})
	if !reflect.DeepEqual(c.recs, []string{"new-a", "folded-in"}) {
		t.Fatalf("replayed %v, want snapshot only", c.recs)
	}
	if rec.StaleJournals != 1 || rec.JournalRecords != 0 {
		t.Fatalf("stale journal not discarded: %+v", rec)
	}
	if _, err := fs.ReadFile("cache.journal"); err == nil {
		t.Fatal("stale journal still on disk")
	}
}

// A file at base that lacks the magic is some other program's, or some
// other version's: it is set aside byte for byte, never deleted, nothing
// of it is replayed, and the store starts cold.
func TestStoreForeignFileQuarantined(t *testing.T) {
	fs := NewMemFS()
	foreign := []byte("cache v0\nentry 1 2 3\nfoo")
	if err := fs.WriteFile("cache", foreign); err != nil {
		t.Fatal(err)
	}
	var c collector
	s, rec := mustOpen(t, fs, "cache", OpenOptions{Replay: c.replay})
	if rec.Corrupt != 1 || rec.Salvaged != 0 || len(c.recs) != 0 {
		t.Fatalf("foreign file misclassified: %+v, replayed %v", rec, c.recs)
	}
	if !reflect.DeepEqual(rec.Quarantined, []string{"cache.corrupt-1"}) {
		t.Fatalf("quarantined as %v", rec.Quarantined)
	}
	if q, err := fs.ReadFile("cache.corrupt-1"); err != nil || string(q) != string(foreign) {
		t.Fatalf("quarantined copy %q (err %v), want the original bytes", q, err)
	}
	// The first compact writes a framed file at the vacated name.
	compactWith(t, s, "fresh")
	s.Close()
	data, err := fs.ReadFile("cache")
	if err != nil || !hasMagic(data) {
		t.Fatalf("post-compact snapshot not framed (err %v)", err)
	}
}

func TestStoreUndecodableRecordQuarantines(t *testing.T) {
	fs := NewMemFS()
	s, _ := mustOpen(t, fs, "cache", OpenOptions{Replay: (&collector{}).replay})
	compactWith(t, s, "good", "bad", "after")
	s.Close()

	var c collector
	_, rec, err := Open(fs, "cache", OpenOptions{Replay: func(p []byte) error {
		if string(p) == "bad" {
			return errors.New("undecodable")
		}
		return c.replay(p)
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !reflect.DeepEqual(c.recs, []string{"good"}) {
		t.Fatalf("kept %v, want [good]", c.recs)
	}
	if rec.Corrupt != 1 || len(rec.Quarantined) != 1 {
		t.Fatalf("decode failure not quarantined: %+v", rec)
	}
}

func TestStoreBrokenAfterFaultHealsByCompact(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, 7, FaultProfile{})
	s, _ := mustOpen(t, ffs, "cache", OpenOptions{Replay: (&collector{}).replay})
	compactWith(t, s, "base")

	ffs.SetProfile(FaultProfile{SyncErr: 1})
	if err := s.Append([]byte("doomed")); err == nil {
		t.Fatal("Append with failing sync succeeded")
	}
	if !s.Broken() {
		t.Fatal("store not marked broken after append failure")
	}
	if err := s.Append([]byte("refused")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Append on broken store = %v, want ErrUnavailable", err)
	}

	ffs.SetProfile(FaultProfile{})
	compactWith(t, s, "base", "healed")
	if s.Broken() {
		t.Fatal("store still broken after successful compact")
	}
	if err := s.Append([]byte("works")); err != nil {
		t.Fatalf("Append after heal: %v", err)
	}
	s.Close()

	var c collector
	mustOpen(t, mem, "cache", OpenOptions{Replay: c.replay})
	want := []string{"base", "healed", "works"}
	if !reflect.DeepEqual(c.recs, want) {
		t.Fatalf("replayed %v, want %v", c.recs, want)
	}
}

// TestParseFaultSpec covers the -storage-faults flag syntax. NaN is the
// case that matters: it fails every comparison, so a plain range check
// lets it through, and rng.Bool(NaN) then never fires — a schedule that
// believes it injects faults and injects none.
func TestParseFaultSpec(t *testing.T) {
	seed, prof, err := ParseFaultSpec("seed=9, write=1e-3,short=1,nospace=0,sync=0.2,meta=0.1,read=0.5")
	want := FaultProfile{WriteErr: 1e-3, ShortWrite: 1, NoSpace: 0, SyncErr: 0.2, MetaErr: 0.1, ReadErr: 0.5}
	if err != nil || seed != 9 || prof != want {
		t.Fatalf("ParseFaultSpec = %d, %+v, %v; want 9, %+v", seed, prof, err, want)
	}
	if seed, prof, err := ParseFaultSpec(""); err != nil || seed != 1 || prof != (FaultProfile{}) {
		t.Fatalf("empty spec = %d, %+v, %v; want seed 1 and no faults", seed, prof, err)
	}
	for _, spec := range []string{
		"write=NaN", "sync=nan", "write=+Inf", "write=-0.1", "write=1.1", "write=", "write", "seed=x", "bogus=0.1",
	} {
		if _, prof, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted: %+v", spec, prof)
		}
	}
}

func TestFaultFSDeterministicReplay(t *testing.T) {
	script := func(seed uint64) []string {
		ffs := NewFaultFS(NewMemFS(), seed, FaultProfile{
			WriteErr: 0.15, ShortWrite: 0.15, NoSpace: 0.1, SyncErr: 0.2, MetaErr: 0.1, ReadErr: 0.1,
		})
		// Drive a fixed op sequence; outcomes vary by seed only.
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("f%d", i%3)
			f, err := ffs.Create(name)
			if err != nil {
				continue
			}
			f.Write([]byte(strings.Repeat("x", 64)))
			f.Sync()
			f.Close()
			ffs.Rename(name, name+".r")
			ffs.SyncRoot()
			if rf, err := ffs.Open(name + ".r"); err == nil {
				buf := make([]byte, 16)
				rf.Read(buf)
				rf.Close()
			}
			ffs.Remove(name + ".r")
		}
		return ffs.Fates()
	}
	a, b := script(1234), script(1234)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed FaultFS runs diverged")
	}
	if c := script(99); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	// And at least one fault actually fired.
	var faults int
	for _, f := range a {
		if !strings.HasSuffix(f, ":ok") {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("fault profile injected nothing")
	}
}

func TestMemFSCrashDurability(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte("-volatile"))
	fs.SyncRoot()

	g, _ := fs.Create("unsynced-name")
	g.Write([]byte("gone"))
	g.Sync() // content durable, but the name never SyncRoot'd

	fs.Crash(CrashLoseUnsynced, 1)
	if _, err := fs.ReadFile("unsynced-name"); err == nil {
		t.Fatal("unsynced namespace op survived lose-unsynced crash")
	}
	data, err := fs.ReadFile("a")
	if err != nil || string(data) != "durable" {
		t.Fatalf("a = %q, %v; want synced prefix only", data, err)
	}
	// Handles from before the crash are stale.
	if _, err := f.Write([]byte("zombie")); !errors.Is(err, errStaleHandle) {
		t.Fatalf("stale handle write = %v", err)
	}

	// keep-unsynced keeps file content but still reverts the namespace.
	fs2 := NewMemFS()
	h, _ := fs2.Create("b")
	fs2.SyncRoot()
	h.Write([]byte("kept-anyway"))
	fs2.Crash(CrashKeepUnsynced, 1)
	if data, _ := fs2.ReadFile("b"); string(data) != "kept-anyway" {
		t.Fatalf("b = %q after keep-unsynced crash", data)
	}

	// Torn-tail is deterministic per seed.
	torn := func(seed uint64) string {
		m := NewMemFS()
		f, _ := m.Create("c")
		f.Write([]byte("sync"))
		f.Sync()
		f.Write([]byte("0123456789"))
		m.SyncRoot()
		m.Crash(CrashTornTail, seed)
		d, _ := m.ReadFile("c")
		return string(d)
	}
	if a, b := torn(5), torn(5); a != b {
		t.Fatalf("torn-tail crash not deterministic: %q vs %q", a, b)
	}
	if got := torn(5); !strings.HasPrefix(got, "sync") {
		t.Fatalf("torn tail ate synced prefix: %q", got)
	}
}

func TestQuarantineNameMapping(t *testing.T) {
	cases := map[string]string{
		"cache.corrupt-1":     "cache",
		"cache.corrupt-27":    "cache",
		"a.journal.corrupt-3": "a.journal",
		"cache.corrupt-":      "",
		"cache.corrupt-x1":    "",
		"cache":               "",
	}
	for in, want := range cases {
		if got := quarantineOf(in); got != want {
			t.Errorf("quarantineOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReadAllSizesItsBuffer: a file that reports its size is read into
// one buffer of that size — a 400 kB MemFS file costs one allocation of
// 400 kB, not io.ReadAll's regrowths — and its bytes are the file's; a
// FaultFS handle, which reports no size, is read in full all the same.
func TestReadAllSizesItsBuffer(t *testing.T) {
	const size = 400 << 10
	mem := NewMemFS()
	want := []byte(strings.Repeat("0123456789abcdef", size/16))
	if err := mem.WriteFile("snap", want); err != nil {
		t.Fatal(err)
	}
	for name, fsys := range map[string]FS{"MemFS": mem, "FaultFS": NewFaultFS(mem, 1, FaultProfile{})} {
		f, err := fsys.Open("snap")
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(f)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %d bytes (%v), want the file's %d", name, len(got), err, len(want))
		}
	}
	const runs = 20
	files := make([]File, runs)
	for i := range files {
		var err error
		if files[i], err = mem.Open("snap"); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range files {
		if _, err := readAll(f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// The buffer, rounded up to whole pages, and the FileInfo Stat boxes;
	// io.ReadAll's regrowths come to more than twice the file.
	if mallocs >= 3 || bytes < size || bytes > size*5/4 {
		t.Fatalf("reading a %d-byte file: %.1f allocations of %.0f bytes, want the buffer once", size, mallocs, bytes)
	}
}
