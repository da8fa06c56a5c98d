package sessiondir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"sessiondir/internal/announce"
	"sessiondir/internal/obs"
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
// tombstones are not persisted, matching the legacy format's contract
// (a restart may briefly resurrect a deleted session; the deletion's
// re-announcement squelches it).
type CacheStore struct {
	store  *storage.Store
	dir    *Directory
	ins    cacheStoreInstruments
	loaded int // entries restored into the cache at recovery
}

// Delta kind bytes.
const (
	deltaLearn  byte = 'L'
	deltaDelete byte = 'D'
	deltaExpire byte = 'E'
	deltaEvict  byte = 'V'
)

type cacheStoreInstruments struct {
	checkpointErrs *obs.Counter
	compactions    *obs.Counter
	appendErrs     *obs.Counter
	appended       *obs.Counter
	salvaged       *obs.Counter
	corrupt        *obs.Counter
}

func newCacheStoreInstruments(r *obs.Registry) (cacheStoreInstruments, error) {
	var ins cacheStoreInstruments
	counters := []struct {
		dst        **obs.Counter
		name, help string
	}{
		{&ins.checkpointErrs, "cache_checkpoint_errors_total", "cache checkpoint (snapshot compaction) attempts that failed"},
		{&ins.compactions, "cache_checkpoint_compactions_total", "successful cache snapshot compactions"},
		{&ins.appendErrs, "cache_journal_append_errors_total", "journal delta batches refused or failed by the store"},
		{&ins.appended, "cache_journal_records_total", "session deltas durably appended to the cache journal"},
		{&ins.salvaged, "cache_recovery_salvaged_total", "cache entries or records salvaged from damaged checkpoint files"},
		{&ins.corrupt, "cache_recovery_corrupt_total", "checkpoint files found corrupt at recovery (quarantined)"},
	}
	for _, c := range counters {
		m, err := r.Counter(c.name, c.help)
		if err != nil {
			return ins, err
		}
		*c.dst = m
	}
	return ins, nil
}

// encodeLearn frames one cache entry as a learn delta / snapshot
// record. Returns nil (skip) for descriptions that cannot marshal —
// the same tolerance the legacy format applies.
func encodeLearn(e *announce.Entry) []byte {
	sdp, err := e.Desc.MarshalSDP()
	if err != nil {
		return nil
	}
	buf := make([]byte, 0, 1+8+8+len(sdp))
	buf = append(buf, deltaLearn)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.FirstHeard.Unix()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.LastHeard.Unix()))
	return append(buf, sdp...)
}

// encodeKeyDelta frames a delete/expire/evict delta.
func encodeKeyDelta(kind byte, key string) []byte {
	buf := make([]byte, 0, 1+len(key))
	return append(append(buf, kind), key...)
}

// applyCacheRecord replays one recovered record into the directory
// cache with Load's merge semantics, reporting whether it added a new
// entry. An undecodable record is a decode error — the store
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
		return d.cache.Restore(desc, time.Unix(first, 0), time.Unix(last, 0), now), nil
	case deltaDelete:
		d.cache.Delete(string(p[1:]), now)
	case deltaExpire, deltaEvict:
		d.cache.Remove(string(p[1:]))
	default:
		return false, fmt.Errorf("unknown cache record kind %q", p[0])
	}
	return false, nil
}

// applyJournalRecord adapts applyCacheRecord to the storage.Open
// replay signature.
func (d *Directory) applyJournalRecord(p []byte) error {
	_, err := d.applyCacheRecord(p)
	return err
}

// OpenCacheStore recovers the journaled cache checkpoint at base inside
// fsys into d (snapshot records first, then journal deltas, then the
// admission trim and clash-tracker registration a LoadCache would do),
// attaches the journal hooks, and returns the store ready for
// Checkpoint. Damage never fails recovery: torn tails are dropped,
// corrupt files are quarantined and their salvageable prefix merged,
// and a legacy-format ("sdcache v1") snapshot is read via the old
// parser and upgraded in place by the first Checkpoint. The error
// return is environmental only (an unreadable disk).
//
// Recovery tallies land in the registry: cache_recovery_salvaged_total
// and cache_recovery_corrupt_total.
func OpenCacheStore(fsys storage.FS, base string, d *Directory) (*CacheStore, storage.Recovery, error) {
	ins, err := newCacheStoreInstruments(d.Registry())
	if err != nil {
		return nil, storage.Recovery{}, err
	}
	legacySalvaged := 0
	loaded := 0
	st, rec, err := storage.Open(fsys, base, storage.OpenOptions{
		Replay: func(p []byte) error {
			added, rerr := d.applyCacheRecord(p)
			if added {
				loaded++
			}
			return rerr
		},
		Legacy: func(data []byte) error {
			d.mu.Lock()
			defer d.mu.Unlock()
			n, lerr := d.cache.Load(bytes.NewReader(data), d.cfg.Clock())
			loaded += n
			if lerr != nil {
				// Partial salvage: n entries merged before the damage;
				// the store quarantines the file.
				legacySalvaged += n
				return lerr
			}
			return nil
		},
	})
	if err != nil {
		return nil, rec, err
	}
	cs := &CacheStore{store: st, dir: d, ins: ins, loaded: loaded}
	cs.ins.salvaged.Add(uint64(rec.Salvaged + legacySalvaged))
	cs.ins.corrupt.Add(uint64(rec.Corrupt))

	// The post-load bookkeeping every recovery needs, regardless of
	// which format the bytes were in.
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
		cs.ins.appendErrs.Inc()
		return
	}
	cs.ins.appended.Add(uint64(len(batch)))
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
		cs.ins.checkpointErrs.Inc()
		return err
	}
	cs.ins.compactions.Inc()
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
	return CacheStoreStats{
		Compactions:      cs.ins.compactions.Value(),
		CheckpointErrors: cs.ins.checkpointErrs.Value(),
		Appended:         cs.ins.appended.Value(),
		AppendErrors:     cs.ins.appendErrs.Value(),
		Salvaged:         cs.ins.salvaged.Value(),
		Corrupt:          cs.ins.corrupt.Value(),
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
	d.journal = nil
	d.jqueue = nil
	d.mu.Unlock()
	return cs.store.Close()
}
