package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrUnavailable is returned by Append when the store has no healthy
// journal — after an append or compaction failure, or right after Open
// (which is read-only). A successful Compact heals it.
var ErrUnavailable = errors.New("storage: journal unavailable until next successful compact")

// Store is a journaled, record-framed store: one snapshot file at base
// plus an append-only journal at base+".journal", both generation-
// stamped. Writers call Append for O(delta) durability between
// compactions and Compact to fold everything into a fresh snapshot.
//
// Crash-safety argument, in the order Compact performs it:
//
//  1. the new snapshot is written to base+".tmp", synced, and renamed
//     over base, then SyncRoot — from here the snapshot (generation
//     g+1) is durable and the old journal (generation g) is stale;
//  2. a crash now loses nothing: recovery discards the stale journal
//     because the snapshot already contains every delta it held;
//  3. the new journal is created at base+".journal.tmp" with a
//     generation-(g+1) header, synced, renamed, SyncRoot.
//
// Every intermediate crash state is therefore either (old snapshot +
// old journal) or (new snapshot + stale-or-new journal) — a valid pre-
// or post-state, which is exactly what the crash-point harness
// enumerates and asserts.
type Store struct {
	fs   FS
	base string

	mu          sync.Mutex
	gen         uint64
	journal     File
	journalRecs int
	broken      bool
	scratch     []byte
}

// Recovery describes what Open found on disk. All fields are
// informational: recovery itself never fails on damaged files, only on
// the environment (an unreadable directory, a failing disk).
type Recovery struct {
	// SnapshotRecords and JournalRecords count the records replayed
	// from each file, damaged or not.
	SnapshotRecords int
	JournalRecords  int
	// Salvaged counts records recovered from files classified corrupt —
	// the prefix before the damage.
	Salvaged int
	// TornTails counts files whose tail was truncated or scribbled by a
	// crash mid-write. This is the normal crash residue, not damage.
	TornTails int
	// Corrupt counts files with mid-file damage or a foreign format;
	// Quarantined lists where they were renamed (base.corrupt-N). A
	// quarantine rename that itself fails leaves the file in place —
	// noted here, never fatal, and the next Compact overwrites it.
	Corrupt     int
	Quarantined []string
	// StaleJournals counts old-generation journals discarded because
	// the snapshot already contains their deltas (the crash window
	// between snapshot rename and journal rotation — normal).
	StaleJournals int
	// Notes carries human-readable classification details for logs.
	Notes []string
}

// OpenOptions configures recovery.
type OpenOptions struct {
	// Replay is called once per recovered record payload, snapshot
	// records first, then journal records, in write order. A Replay
	// error classifies the rest of that file as corrupt (checksummed
	// bytes the application cannot decode) and quarantines it; recovery
	// continues.
	Replay func(payload []byte) error
}

// Open reads base and base+".journal", replays every recoverable
// record, and returns a Store positioned after the highest durable
// generation. The returned Store is read-only until the first
// successful Compact (Append returns ErrUnavailable), which both
// rewrites the snapshot in the current format and opens a fresh
// journal — recovery's final step belongs to the writer, so Open
// itself never mutates good files.
//
// The returned Recovery is meaningful even when err != nil: it
// describes everything replayed before the failure.
func Open(fsys FS, base string, opts OpenOptions) (*Store, Recovery, error) {
	if opts.Replay == nil {
		return nil, Recovery{}, errors.New("storage: OpenOptions.Replay is required")
	}
	if err := validName(base); err != nil {
		return nil, Recovery{}, err
	}
	s := &Store{fs: fsys, base: base, broken: true}
	var rec Recovery

	snapGen, haveSnap, err := s.recoverFile(base, kindSnapshot, opts, &rec)
	if err != nil {
		return nil, rec, err
	}

	jname := base + ".journal"
	jdata, jerr := s.readIfPresent(jname)
	switch {
	case jerr != nil:
		return nil, rec, fmt.Errorf("storage: read %s: %w", jname, jerr)
	case jdata == nil:
		// No journal: a fresh directory, or a crash before the first
		// journal rotation.
	default:
		img := parseFile(jdata)
		switch {
		case img.corrupt:
			rec.Corrupt++
			rec.note("journal %s corrupt (%s), %d records salvaged", jname, img.reason, len(img.records))
			s.quarantine(jname, &rec)
			rec.Salvaged += s.replayInto(img.records, opts.Replay, &rec, jname)
			rec.JournalRecords += len(img.records)
		case haveSnap && img.gen < snapGen:
			// Stale journal: the snapshot at snapGen already folded in
			// these deltas. Discard — this is the normal crash window
			// between Compact's two renames.
			rec.StaleJournals++
			rec.note("journal %s generation %d behind snapshot %d: discarded", jname, img.gen, snapGen)
			_ = s.fs.Remove(jname)
		default:
			if img.torn {
				rec.TornTails++
				rec.note("journal %s torn tail (%s): dropped", jname, img.reason)
			}
			if haveSnap && img.gen > snapGen {
				rec.note("journal %s generation %d ahead of snapshot %d: replaying as salvage", jname, img.gen, snapGen)
			}
			n := s.replayInto(img.records, opts.Replay, &rec, jname)
			rec.JournalRecords += n
			if img.gen > s.gen {
				s.gen = img.gen
			}
		}
	}
	if haveSnap && snapGen > s.gen {
		s.gen = snapGen
	}

	// Leftover temp files are crash residue from an interrupted
	// Compact; their content is unreferenced by construction.
	_ = s.fs.Remove(base + ".tmp")
	_ = s.fs.Remove(jname + ".tmp")

	return s, rec, nil
}

// recoverFile reads and replays the snapshot file. Returns its
// generation and whether a framed snapshot header was recovered.
func (s *Store) recoverFile(name string, wantKind byte, opts OpenOptions, rec *Recovery) (uint64, bool, error) {
	data, err := s.readIfPresent(name)
	if err != nil {
		return 0, false, fmt.Errorf("storage: read %s: %w", name, err)
	}
	if data == nil {
		return 0, false, nil
	}
	img := parseFile(data)
	if img.corrupt || (img.kind != 0 && img.kind != wantKind) {
		reason := img.reason
		if !img.corrupt {
			reason = fmt.Sprintf("wrong file kind %d", img.kind)
		}
		rec.Corrupt++
		rec.note("snapshot %s corrupt (%s), %d records salvaged", name, reason, len(img.records))
		s.quarantine(name, rec)
		rec.Salvaged += s.replayInto(img.records, opts.Replay, rec, name)
		rec.SnapshotRecords += len(img.records)
		return 0, false, nil
	}
	if img.torn {
		rec.TornTails++
		rec.note("snapshot %s torn tail (%s): dropped", name, img.reason)
	}
	n := s.replayInto(img.records, opts.Replay, rec, name)
	rec.SnapshotRecords += n
	// A torn header yields kind 0/gen 0: treat as no snapshot.
	return img.gen, img.kind == wantKind, nil
}

// replayInto feeds records to replay until the first decode error,
// which reclassifies the remainder as corrupt (and quarantines the
// file, if it wasn't already). Returns how many records were applied.
func (s *Store) replayInto(records [][]byte, replay func([]byte) error, rec *Recovery, name string) int {
	for i, r := range records {
		if err := replay(r); err != nil {
			rec.Corrupt++
			rec.note("%s record %d undecodable (%v): quarantining, %d records kept", name, i, err, i)
			s.quarantine(name, rec)
			return i
		}
	}
	return len(records)
}

// readIfPresent returns (nil, nil) for a missing file.
func (s *Store) readIfPresent(name string) ([]byte, error) {
	f, err := s.fs.Open(name)
	if notExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	data, err := readAll(f)
	if err != nil {
		return nil, err
	}
	if data == nil {
		data = []byte{}
	}
	return data, nil
}

// quarantine renames name aside as name.corrupt-N, picking the first
// unused N. Failure is non-fatal (noted; the file stays and the next
// Compact rewrites it) — corruption must never stop the daemon from
// starting.
func (s *Store) quarantine(name string, rec *Recovery) {
	for _, q := range rec.Quarantined {
		if quarantineOf(q) == name {
			// Already quarantined during this recovery (a decode error
			// after a framing-level quarantine of the same file).
			return
		}
	}
	for n := 1; ; n++ {
		dst := fmt.Sprintf("%s.corrupt-%d", name, n)
		if f, err := s.fs.Open(dst); err == nil {
			_ = f.Close()
			continue
		} else if !notExist(err) {
			rec.note("quarantine probe %s: %v; leaving %s in place", dst, err, name)
			return
		}
		if err := s.fs.Rename(name, dst); err != nil {
			rec.note("quarantine rename %s -> %s failed: %v; leaving it in place", name, dst, err)
			return
		}
		rec.Quarantined = append(rec.Quarantined, dst)
		return
	}
}

// quarantineOf maps "x.corrupt-N" back to "x" ("" if not a quarantine
// name).
func quarantineOf(name string) string {
	i := len(name) - 1
	digits := 0
	for i >= 0 && name[i] >= '0' && name[i] <= '9' {
		i--
		digits++
	}
	const suffix = ".corrupt-"
	if digits == 0 || i < len(suffix)-1 || name[i-len(suffix)+1:i+1] != suffix {
		return ""
	}
	return name[:i-len(suffix)+1]
}

func (r *Recovery) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Append frames the given payloads into the journal and syncs once — a
// group commit. A nil return means every payload is durable. Any error
// marks the store broken (the journal tail may be torn); Append then
// returns ErrUnavailable until a Compact succeeds, so a flaky disk
// degrades to snapshot-only persistence instead of compounding damage.
func (s *Store) Append(payloads ...[]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken || s.journal == nil {
		return ErrUnavailable
	}
	buf := s.scratch[:0]
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	s.scratch = buf[:0]
	if _, err := s.journal.Write(buf); err != nil {
		s.broken = true
		return fmt.Errorf("storage: journal append: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		s.broken = true
		return fmt.Errorf("storage: journal sync: %w", err)
	}
	s.journalRecs += len(payloads)
	return nil
}

// snapshotChunk flushes the snapshot buffer to the file once it grows
// past this, bounding memory during large compactions.
const snapshotChunk = 256 << 10

// Compact writes a fresh generation-(g+1) snapshot via the write
// callback (one add call per record), makes it durable, and rotates the
// journal. On success the store is healthy and the journal is empty; on
// failure the on-disk state is still a valid recovery point (see the
// type comment), though the store may refuse Append until retried.
func (s *Store) Compact(write func(add func(payload []byte) error) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	newGen := s.gen + 1
	tmp := s.base + ".tmp"

	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: compact create: %w", err)
	}
	buf := appendHeader(s.scratch[:0], kindSnapshot, newGen)
	werr := write(func(payload []byte) error {
		buf = appendFrame(buf, payload)
		if len(buf) >= snapshotChunk {
			_, err := f.Write(buf)
			buf = buf[:0]
			return err
		}
		return nil
	})
	if werr == nil && len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	s.scratch = buf[:0]
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("storage: compact snapshot: %w", werr)
	}

	// Point of no return: once the rename is issued, the old journal is
	// stale, so the store stays broken until the rotation completes.
	s.broken = true
	if err := s.fs.Rename(tmp, s.base); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("storage: compact rename: %w", err)
	}
	if err := s.fs.SyncRoot(); err != nil {
		return fmt.Errorf("storage: compact dir sync: %w", err)
	}
	s.gen = newGen

	// Rotate the journal: new header, new generation, fresh file.
	if s.journal != nil {
		_ = s.journal.Close()
		s.journal = nil
	}
	jtmp := s.base + ".journal.tmp"
	jf, err := s.fs.Create(jtmp)
	if err != nil {
		return fmt.Errorf("storage: journal create: %w", err)
	}
	jerr := func() error {
		if _, err := jf.Write(appendHeader(nil, kindJournal, newGen)); err != nil {
			return err
		}
		return jf.Sync()
	}()
	if jerr != nil {
		_ = jf.Close()
		_ = s.fs.Remove(jtmp)
		return fmt.Errorf("storage: journal header: %w", jerr)
	}
	if err := s.fs.Rename(jtmp, s.base+".journal"); err != nil {
		_ = jf.Close()
		_ = s.fs.Remove(jtmp)
		return fmt.Errorf("storage: journal rename: %w", err)
	}
	if err := s.fs.SyncRoot(); err != nil {
		_ = jf.Close()
		return fmt.Errorf("storage: journal dir sync: %w", err)
	}

	// The handle opened before the rename still points at the journal
	// inode — appends continue on it without reopening.
	s.journal = jf
	s.journalRecs = 0
	s.broken = false
	return nil
}

// JournalRecords returns how many records the journal has accumulated
// since the last Compact — the caller's compaction-threshold input.
func (s *Store) JournalRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalRecs
}

// Broken reports whether Append is refusing work until a Compact
// succeeds.
func (s *Store) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Close releases the journal handle. The store is not flushed: Append
// already synced everything it acknowledged.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.journal != nil {
		err = s.journal.Close()
		s.journal = nil
	}
	s.broken = true
	return err
}
