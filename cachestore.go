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
// Delta payloads (first byte is the kind), each a head and a body that
// storage.AppendRecord frames:
//
//	'L' | firstHeardUnix (8 BE) | lastHeardUnix (8 BE) | SDP bytes
//	'D' | session key            (deletion: tombstone semantics)
//	'E' | session key            (expiry: entry dropped)
//	'V' | session key            (eviction: entry dropped)
//
// An 'L' record holds the entry's payload as heard, so its digest is
// theirs and a recovered entry knows its sender's next unchanged
// announcement however the sender spells it. Snapshot records are the
// same 'L' records, one per live session, written from the cache as they
// are — tombstones are not persisted (a restart may briefly resurrect a
// deleted session; the deletion's re-announcement squelches it). Either
// way a payload is copied once, into the frame that goes to the disk.
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

// learnHead fills head with a learn record's kind and the entry's first
// and last heard times, in Unix seconds, and returns it.
func learnHead(head *[learnHeader]byte, first, last int64) []byte {
	head[0] = deltaLearn
	binary.BigEndian.PutUint64(head[1:], uint64(first))
	binary.BigEndian.PutUint64(head[9:], uint64(last))
	return head[:]
}

// appendLearn appends e's learn record, its payload as heard, framed, to
// batch.
func appendLearn(batch []byte, e *announce.Entry) []byte {
	var head [learnHeader]byte
	return storage.AppendRecord(batch, learnHead(&head, e.FirstHeard, e.LastHeard.Unix()), e.Payload())
}

// appendKeyRecord appends a delete/expire/evict record, framed, to batch.
func appendKeyRecord(batch []byte, kind byte, key string) []byte {
	return storage.AppendRecord(batch, []byte{kind}, key)
}

// snapshotRecord is what a checkpoint takes of one live entry under the
// directory lock: its payload, which the entry replaces and never
// modifies, and its times.
type snapshotRecord struct {
	payload     string
	first, last int64
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

// appendBatch journals one drained batch of framed deltas, which the
// store checksums and writes. Errors are counted, not propagated: a
// failed append breaks the store, which then refuses further appends
// cheaply until a Checkpoint succeeds — the directory keeps serving
// either way, degraded to snapshot-cadence durability.
func (cs *CacheStore) appendBatch(batch []byte) {
	n, err := cs.store.Append(batch)
	if err != nil {
		cs.dir.ins.store.appendErrs.Inc()
		return
	}
	cs.dir.ins.store.appended.Add(uint64(n))
}

// Checkpoint folds the live cache into a fresh snapshot generation and
// rotates the journal. Under the directory lock it takes only the live
// entries' payloads and times, in key order — the payload strings are
// shared with the cache, not copied — and discards the queued but
// undrained deltas, whose effects are inside the snapshot by
// construction. The records are framed, checksummed and written outside
// it.
func (cs *CacheStore) Checkpoint() error {
	d := cs.dir
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	d.mu.Lock()
	live := d.cache.Live()
	announce.SortByKey(live)
	records := make([]snapshotRecord, len(live))
	for i, e := range live {
		records[i] = snapshotRecord{payload: e.Payload(), first: e.FirstHeard, last: e.LastHeard.Unix()}
	}
	d.fx.journal = emptied(d.fx.journal, keepJournal)
	d.mu.Unlock()

	err := cs.store.Compact(func(add func(head []byte, body string) error) error {
		var head [learnHeader]byte
		for _, r := range records {
			if err := add(learnHead(&head, r.first, r.last), r.payload); err != nil {
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
