package sessiondir

import (
	"encoding/binary"
	"fmt"
	"time"

	"sessiondir/internal/announce"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
)

// CacheStore is the journaled persistence bridge between a Directory
// and internal/storage: cache mutations (learned / deleted / expired /
// evicted sessions) become journal deltas appended between checkpoints,
// and Checkpoint folds the live cache into a fresh snapshot generation.
// Steady-state persistence is therefore O(delta), not O(sessions) — the
// full-cache write happens only at the compaction cadence.
//
// Delta payloads (first byte is the kind):
//
//	'L' | firstHeardUnix (8 BE) | lastHeardUnix (8 BE) | SDP bytes
//	'D' | session key            (deletion: tombstone semantics)
//	'E' | session key            (expiry: entry dropped)
//	'V' | session key            (eviction: entry dropped)
//
// Snapshot records reuse the 'L' encoding, one per live session —
// tombstones are not persisted (a restart may briefly resurrect a
// deleted session; the deletion's re-announcement squelches it).
type CacheStore struct {
	store  *storage.Store
	dir    *Directory
	loaded int // entries restored into the cache at recovery
}

// Delta kind bytes.
const (
	deltaLearn  byte = 'L'
	deltaDelete byte = 'D'
	deltaExpire byte = 'E'
	deltaEvict  byte = 'V'
)

// cacheStoreInstruments are the cache_* counters. They belong to the
// directory (registered once, in New), not to a store: a registry name
// can be taken once, and a directory outlives its stores — a failed
// open is retried, a closed store reopened.
type cacheStoreInstruments struct {
	checkpointErrs *obs.Counter
	compactions    *obs.Counter
	appendErrs     *obs.Counter
	appended       *obs.Counter
	salvaged       *obs.Counter
	corrupt        *obs.Counter
}

// encodeLearn frames one cache entry as a learn delta / snapshot
// record. Returns nil (skip) for descriptions that cannot marshal: one
// invalid cached description must not fail the whole checkpoint.
func encodeLearn(e *announce.Entry) []byte {
	sdp, err := e.Desc.MarshalSDP()
	if err != nil {
		return nil
	}
	buf := make([]byte, 0, 1+8+8+len(sdp))
	buf = append(buf, deltaLearn)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.FirstHeard))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.LastHeard.Unix()))
	return append(buf, sdp...)
}

// encodeKeyDelta frames a delete/expire/evict delta.
func encodeKeyDelta(kind byte, key string) []byte {
	buf := make([]byte, 0, 1+len(key))
	return append(append(buf, kind), key...)
}

// applyCacheRecord replays one recovered record into the directory
// cache with Restore's merge semantics, reporting whether it added a
// new entry. An undecodable record is a decode error — the store
// quarantines the rest of that file.
func (d *Directory) applyCacheRecord(p []byte) (bool, error) {
	if len(p) == 0 {
		return false, fmt.Errorf("empty cache record")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Clock()
	switch p[0] {
	case deltaLearn:
		if len(p) < 1+8+8+1 {
			return false, fmt.Errorf("short learn record (%d bytes)", len(p))
		}
		first := int64(binary.BigEndian.Uint64(p[1:9]))
		last := int64(binary.BigEndian.Uint64(p[9:17]))
		desc, err := session.ParseSDP(p[17:])
		if err != nil {
			return false, fmt.Errorf("learn record SDP: %w", err)
		}
		// The digest of the record's own bytes, which desc was parsed from
		// just now: a re-announcement that spells the session this way is
		// known unchanged from the first one after recovery.
		digest := sap.PayloadDigest(d.digestSeed, p[17:])
		return d.cache.Restore(desc, digest, time.Unix(first, 0), time.Unix(last, 0), now), nil
	case deltaDelete:
		d.cache.Delete(string(p[1:]), now)
	case deltaExpire, deltaEvict:
		d.cache.Remove(string(p[1:]))
	default:
		return false, fmt.Errorf("unknown cache record kind %q", p[0])
	}
	return false, nil
}

// OpenCacheStore recovers the journaled cache checkpoint at base inside
// fsys into d (snapshot records first, then journal deltas, then the
// admission trim and clash-tracker registration), attaches the journal
// hooks, and returns the store ready for Checkpoint. Damage never fails
// recovery: torn tails are dropped, and corrupt files — a file in any
// other format included — are quarantined and their salvageable prefix
// merged. The error return is environmental only (an unreadable disk).
//
// Recovery tallies land in the registry: cache_recovery_salvaged_total
// and cache_recovery_corrupt_total.
func OpenCacheStore(fsys storage.FS, base string, d *Directory) (*CacheStore, storage.Recovery, error) {
	loaded := 0
	st, rec, err := storage.Open(fsys, base, storage.OpenOptions{
		Replay: func(p []byte) error {
			added, rerr := d.applyCacheRecord(p)
			if added {
				loaded++
			}
			return rerr
		},
	})
	if err != nil {
		return nil, rec, err
	}
	cs := &CacheStore{store: st, dir: d, loaded: loaded}
	d.ins.store.salvaged.Add(uint64(rec.Salvaged))
	d.ins.store.corrupt.Add(uint64(rec.Corrupt))

	d.mu.Lock()
	d.registerLoadedLocked(d.cfg.Clock())
	d.mu.Unlock()

	// Attach the journal hooks; everything recovered so far is captured
	// by the caller's first Checkpoint (the store refuses Append until
	// then).
	d.jmu.Lock()
	d.mu.Lock()
	d.journal = cs
	d.jqueue = nil
	d.mu.Unlock()
	d.jmu.Unlock()
	return cs, rec, nil
}

// appendBatch journals one drained delta batch. Errors are counted, not
// propagated: a failed append breaks the store, which then refuses
// further appends cheaply until a Checkpoint succeeds — the directory
// keeps serving either way, degraded to snapshot-cadence durability.
func (cs *CacheStore) appendBatch(batch [][]byte) {
	if err := cs.store.Append(batch...); err != nil {
		cs.dir.ins.store.appendErrs.Inc()
		return
	}
	cs.dir.ins.store.appended.Add(uint64(len(batch)))
}

// Checkpoint folds the live cache into a fresh snapshot generation and
// rotates the journal. The cache encode happens under the directory
// lock; the disk writes do not. Queued-but-undrained deltas are
// discarded in the same critical section — their effects are inside the
// snapshot by construction.
func (cs *CacheStore) Checkpoint() error {
	d := cs.dir
	d.jmu.Lock()
	defer d.jmu.Unlock()
	d.mu.Lock()
	live := d.cache.Live()
	announce.SortByKey(live)
	entries := make([][]byte, 0, len(live))
	for _, e := range live {
		if p := encodeLearn(e); p != nil {
			entries = append(entries, p)
		}
	}
	d.jqueue = nil
	d.mu.Unlock()

	err := cs.store.Compact(func(add func([]byte) error) error {
		for _, p := range entries {
			if err := add(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		d.ins.store.checkpointErrs.Inc()
		return err
	}
	d.ins.store.compactions.Inc()
	return nil
}

// JournalRecords reports deltas appended since the last Checkpoint —
// the compaction-threshold input.
func (cs *CacheStore) JournalRecords() int { return cs.store.JournalRecords() }

// Loaded reports how many entries recovery restored into the cache.
func (cs *CacheStore) Loaded() int { return cs.loaded }

// CacheStoreStats is a point-in-time sample of the persistence
// counters, for operator dumps (SIGUSR1) without a metrics scrape.
type CacheStoreStats struct {
	Compactions      uint64
	CheckpointErrors uint64
	Appended         uint64
	AppendErrors     uint64
	Salvaged         uint64
	Corrupt          uint64
	JournalRecords   int
	Broken           bool
}

// Stats samples the persistence counters.
func (cs *CacheStore) Stats() CacheStoreStats {
	ins := &cs.dir.ins.store
	return CacheStoreStats{
		Compactions:      ins.compactions.Value(),
		CheckpointErrors: ins.checkpointErrs.Value(),
		Appended:         ins.appended.Value(),
		AppendErrors:     ins.appendErrs.Value(),
		Salvaged:         ins.salvaged.Value(),
		Corrupt:          ins.corrupt.Value(),
		JournalRecords:   cs.store.JournalRecords(),
		Broken:           cs.store.Broken(),
	}
}

// Broken reports whether the journal is refusing appends until the next
// successful Checkpoint.
func (cs *CacheStore) Broken() bool { return cs.store.Broken() }

// Close releases the store. Acknowledged appends are already durable.
func (cs *CacheStore) Close() error {
	d := cs.dir
	d.jmu.Lock()
	defer d.jmu.Unlock()
	d.mu.Lock()
	if d.journal == cs {
		d.journal = nil
		d.jqueue = nil
	}
	d.mu.Unlock()
	return cs.store.Close()
}
