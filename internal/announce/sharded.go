package announce

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sessiondir/internal/par"
	"sessiondir/internal/session"
)

// Sharded is the listened-session store striped into per-origin shards.
// Each shard is a plain Cache behind its own RWMutex, selected by a hash
// of the session key's origin prefix (keys are "origin/id", so every
// session of one announcer lands in one shard). The directory serialises
// every mutation and nearly every read under its own mutex, so the shard
// locks never contend in this program. What the shard count changes is
// how the O(cache) scans that remain run — Expire on every Step, Live for
// checkpoints and Sessions snapshots, AllGrouped for the once-per-start
// load trim: per shard, merged in shard order, on one goroutine per shard
// once the population reaches parallelScanMin. The per-shard atomic
// totals are summed without a lock; only the dir_cache_sessions gauge and
// CacheSize use that outside the directory mutex — the other gauges and
// the bandwidth-budget read run inside it.
//
// Determinism: shard selection is a pure function of the key, every scan
// merges in shard index order, and Expire and the checkpoint writer sort
// globally, so for any fixed shard count a seeded run replays
// bit-identically — and every consumer of Live/AllGrouped is
// order-insensitive (or sorts), so results are also identical *across*
// shard counts. A Sharded with one shard is the unsharded oracle.
//
// The eviction order and the allocator view (index.go) are per-shard
// structures too: each shard's heap, per-origin counts and view are
// written by that shard's Cache at its mutation sites and are covered by
// that shard's lock, exactly like its entry map. Queries merge at read
// time under the shard read locks — shard totals summed, the K heap heads
// compared, the K view slices appended to the caller's buffer. They return
// keys and copies, never the structures themselves, so nothing outlives a
// lock. (The directory calls all of it under its own mutex anyway.)
type Sharded struct {
	shards []cacheShard
	// Timeout mirrors the per-shard caches' timeout (uniform across
	// shards), exposed for the directory's staleness defaulting.
	Timeout time.Duration
}

// cacheShard pairs one cache stripe with its lock and the atomic
// mirrors of its totals. The mirrors are refreshed under the shard lock
// after every mutation; readers (gauges, the bandwidth budget) sum them
// without taking any lock. The pad keeps hot shards off each other's
// cache lines.
type cacheShard struct {
	mu      sync.RWMutex
	c       *Cache
	size    atomic.Int64
	live    atomic.Int64
	adBytes atomic.Int64
	_       [64]byte
}

// parallelScanMin is the smallest total population for which the
// per-shard scans bother spawning workers; below it a serial walk of the
// shards is faster than the handoff. Exported behaviour is identical
// either way (the merge order is shard order in both paths).
const parallelScanMin = 8192

// NewSharded returns a sharded cache with the given expiry timeout
// (0 = one hour) and shard count (values < 1 mean one shard — the
// unsharded oracle layout).
func NewSharded(timeout time.Duration, shards int) *Sharded {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{shards: make([]cacheShard, shards)}
	for i := range s.shards {
		s.shards[i].c = NewCache(timeout)
	}
	s.Timeout = s.shards[0].c.Timeout
	return s
}

// originOf extracts the origin prefix of a session key ("origin/id").
func originOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i]
	}
	return key
}

// shardFor hashes the key's origin prefix (FNV-1a) onto a shard index.
// Using the origin, not the whole key, keeps one announcer's sessions —
// and therefore its per-origin admission accounting — inside one stripe.
func (s *Sharded) shardFor(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	origin := originOf(key)
	h := uint32(offset32)
	for i := 0; i < len(origin); i++ {
		h ^= uint32(origin[i])
		h *= prime32
	}
	return int(h % uint32(len(s.shards)))
}

// sync refreshes the shard's atomic totals; call under sh.mu after any
// mutation.
func (sh *cacheShard) sync() {
	sh.size.Store(int64(sh.c.Size()))
	sh.live.Store(int64(sh.c.Len()))
	sh.adBytes.Store(int64(sh.c.TotalAdBytes()))
}

// Observe records an announcement, returning the entry and whether the
// session (or a new version of it) was previously unknown.
func (s *Sharded) Observe(d *session.Description, now time.Time) (*Entry, bool) {
	return s.ObserveKeyed(d.Key(), d, now)
}

// ObserveKeyed is Observe for a caller that already holds key = d.Key().
func (s *Sharded) ObserveKeyed(key string, d *session.Description, now time.Time) (*Entry, bool) {
	sh := &s.shards[s.shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, fresh := sh.c.ObserveKeyed(key, d, now)
	sh.sync()
	return e, fresh
}

// Delete marks a session deleted (explicit SAP deletion packet).
func (s *Sharded) Delete(key string, now time.Time) {
	sh := &s.shards[s.shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.c.Delete(key, now)
	sh.sync()
}

// Get returns a live (non-deleted) entry.
func (s *Sharded) Get(key string) (*Entry, bool) {
	sh := &s.shards[s.shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.c.Get(key)
}

// Peek returns the entry for key whether or not it is deleted.
func (s *Sharded) Peek(key string) (*Entry, bool) {
	sh := &s.shards[s.shardFor(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.c.Peek(key)
}

// Remove hard-deletes an entry (admission-layer eviction).
func (s *Sharded) Remove(key string) {
	sh := &s.shards[s.shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.c.Remove(key)
	sh.sync()
}

// Restore merges one persisted entry with Cache.Restore's semantics.
func (s *Sharded) Restore(desc *session.Description, first, last, now time.Time) bool {
	sh := &s.shards[s.shardFor(desc.Key())]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	added := sh.c.Restore(desc, first, last, now)
	sh.sync()
	return added
}

// Size returns the total number of entries, tombstones included. Reads
// the per-shard atomics: safe from scrape paths without any lock.
func (s *Sharded) Size() int {
	n := int64(0)
	for i := range s.shards {
		n += s.shards[i].size.Load()
	}
	return int(n)
}

// Len returns the number of live entries, lock-free like Size.
func (s *Sharded) Len() int {
	n := int64(0)
	for i := range s.shards {
		n += s.shards[i].live.Load()
	}
	return int(n)
}

// TotalAdBytes is the live population's summed announcement size for
// the bandwidth budget, lock-free like Size.
func (s *Sharded) TotalAdBytes() int {
	n := int64(0)
	for i := range s.shards {
		n += s.shards[i].adBytes.Load()
	}
	return int(n)
}

// CountFresh counts live entries heard within staleAfter of now — the
// degradation tiers' pressure signal. Commutative, so the per-shard
// counts sum to exactly the flat cache's scan.
func (s *Sharded) CountFresh(now time.Time, staleAfter time.Duration) int {
	fresh := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		fresh += sh.c.CountFresh(now, staleAfter)
		sh.mu.RUnlock()
	}
	return fresh
}

// Expire evicts timed-out entries from every shard, returning the
// evicted keys globally sorted — the same sequence the unsharded cache
// produces, which is what keeps expiry traces and journals bit-identical
// across shard counts.
func (s *Sharded) Expire(now time.Time) []string {
	evicted := gatherShards(s, func(i int) []string {
		sh := &s.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		keys := sh.c.Expire(now)
		sh.sync()
		return keys
	})
	sort.Strings(evicted)
	return evicted
}

// Live returns all live entries, concatenated in shard order.
func (s *Sharded) Live() []*Entry {
	return gatherShards(s, func(i int) []*Entry {
		sh := &s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.c.Live()
	})
}

// AllGrouped returns every entry grouped by shard, for consumers that
// keep per-shard structure (grouped admission planning) instead of
// flattening.
func (s *Sharded) AllGrouped() [][]*Entry {
	groups := make([][]*Entry, len(s.shards))
	par.For(s.scanWorkers(), len(s.shards), func(i int) {
		sh := &s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		groups[i] = sh.c.All()
	})
	return groups
}

// scanWorkers picks the worker count for a per-shard scan: 1 (serial)
// below parallelScanMin entries, the shard count above it.
func (s *Sharded) scanWorkers() int {
	if s.Size() < parallelScanMin {
		return 1
	}
	return len(s.shards)
}

// gatherShards is the generic shard-index-order merge (methods cannot
// have type parameters). fn receives the shard index and does its own
// locking.
func gatherShards[T any](s *Sharded, fn func(i int) []T) []T {
	if len(s.shards) == 1 {
		return fn(0)
	}
	return par.Gather(s.scanWorkers(), len(s.shards), fn)
}

// SortByKey sorts entries by session key and returns the keys in the
// same order. Each key is built once, not once per comparison.
func SortByKey(entries []*Entry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Desc.Key()
	}
	sort.Sort(byKey{keys, entries})
	return keys
}

// byKey sorts entries and their keys together.
type byKey struct {
	keys    []string
	entries []*Entry
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.entries[i], b.entries[j] = b.entries[j], b.entries[i]
}
