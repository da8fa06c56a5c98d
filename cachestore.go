package sessiondir

import (
	"encoding/binary"
	"time"

	"sessiondir/internal/announce"
	"sessiondir/internal/obs"
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
// A journal 'L' record holds the payload as heard: the bytes the entry's
// description was parsed from, so its digest is theirs and a recovered
// entry knows its sender's next unchanged announcement however the
// sender spells it. Snapshot records reuse the 'L' encoding, one per live
// session, with the description re-encoded — tombstones are not persisted
// (a restart may briefly resurrect a deleted session; the deletion's
// re-announcement squelches it).
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

// learnHeader is a learn record's length before its SDP bytes.
const learnHeader = 1 + 8 + 8

// appendLearnHeader appends the header of e's learn record to dst.
func appendLearnHeader(dst []byte, e *announce.Entry) []byte {
	rec := binary.BigEndian.AppendUint64(append(dst, deltaLearn), uint64(e.FirstHeard))
	return binary.BigEndian.AppendUint64(rec, uint64(e.LastHeard.Unix()))
}

// appendLearn appends e's learn record, its description re-encoded, to
// dst, or nothing if the description cannot marshal.
func appendLearn(dst []byte, e *announce.Entry) []byte {
	if rec, err := e.Desc.AppendSDP(appendLearnHeader(dst, e)); err == nil {
		return rec
	}
	return dst
}

// snapshotRecords sorts live by key and encodes its learn records into
// one arena of exactly their total length.
func snapshotRecords(live []*announce.Entry) [][]byte {
	announce.SortByKey(live)
	size := 0
	for _, e := range live {
		size += learnHeader + e.Desc.SDPLen()
	}
	arena := make([]byte, 0, size)
	records := make([][]byte, 0, len(live))
	for _, e := range live {
		start := len(arena)
		if arena = appendLearn(arena, e); len(arena) > start {
			records = append(records, arena[start:len(arena):len(arena)])
		}
	}
	return records
}

// encodeKeyDelta frames a delete/expire/evict delta.
func encodeKeyDelta(kind byte, key string) []byte {
	buf := make([]byte, 0, 1+len(key))
	return append(append(buf, kind), key...)
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
	now := d.cfg.Clock()
	st, rec, err := storage.Open(fsys, base, storage.OpenOptions{
		Replay: func(p []byte) error {
			d.mu.Lock()
			added, rerr := d.restore(p, now)
			d.mu.Unlock()
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

	// Attach the journal once the load trim is done: everything recovered
	// so far is captured by the caller's first Checkpoint (the store
	// refuses Append until then).
	d.drainMu.Lock()
	d.mu.Lock()
	d.registerLoaded(now)
	d.journal, d.journaling, d.fx.journal = cs, true, nil
	d.mu.Unlock()
	d.drainMu.Unlock()
	d.flush() // the trim's eviction events
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
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	d.mu.Lock()
	entries := snapshotRecords(d.cache.Live())
	d.fx.journal = nil
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
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	d.mu.Lock()
	if d.journal == cs {
		d.journal = nil
		d.journaling = false
		d.fx.journal = nil
	}
	d.mu.Unlock()
	return cs.store.Close()
}

// checkpointFailLimit is how many checkpoints in a row must fail before a
// Checkpointer reports the store degraded.
const checkpointFailLimit = 3

// A Checkpointer paces a CacheStore's checkpoints as sdrd runs them:
// every interval while the journal holds deltas to fold or a failure to
// heal, and after a failure again with doubling backoff capped at 8× the
// interval. After checkpointFailLimit consecutive failures the store is
// degraded — sdrd's /readyz answers 503 storage-degraded — until a
// checkpoint succeeds; the directory keeps serving the protocol either
// way. Not safe for concurrent use: one driver calls Tick.
type Checkpointer struct {
	store    *CacheStore
	interval time.Duration
	delay    time.Duration
	fails    int
}

// NewCheckpointer paces cs's checkpoints at interval, which must be
// positive. The caller runs the first Tick one interval on.
func NewCheckpointer(cs *CacheStore, interval time.Duration) *Checkpointer {
	return &Checkpointer{store: cs, interval: interval, delay: interval}
}

// Tick runs the checkpoint that is due, unless there is nothing to fold
// and nothing to heal, and returns how long to wait before the next Tick
// and the checkpoint's error, already counted.
func (c *Checkpointer) Tick() (next time.Duration, err error) {
	// An idle journal skips the O(sessions) rewrite: appends carry
	// durability meanwhile.
	if c.store.JournalRecords() == 0 && !c.store.Broken() && c.fails == 0 {
		return c.delay, nil
	}
	if err := c.store.Checkpoint(); err != nil {
		c.fails++
		c.delay = min(2*c.delay, 8*c.interval)
		return c.delay, err
	}
	c.fails, c.delay = 0, c.interval
	return c.delay, nil
}

// Failures reports how many checkpoints in a row have failed.
func (c *Checkpointer) Failures() int { return c.fails }

// Degraded reports whether checkpointFailLimit or more checkpoints in a
// row have failed.
func (c *Checkpointer) Degraded() bool { return c.fails >= checkpointFailLimit }
