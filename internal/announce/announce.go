// Package announce implements the announce/listen machinery of a session
// directory: the listened-session cache with expiry, the exponential
// back-off re-announcement schedule the paper's §4 recommends, and the
// SAP bandwidth budget that sets the steady-state announcement interval.
package announce

import (
	"container/heap"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
)

// DefaultBandwidthBps is the conventional SAP announcement bandwidth
// budget for a scope (4000 bits/second, shared by all announcers).
const DefaultBandwidthBps = 4000

// MinInterval is the floor on the steady-state announcement interval
// (RFC 2974 uses 300 s; with few sessions the budget allows faster but the
// floor keeps chatter down).
const MinInterval = 300 * time.Second

// SteadyInterval returns the steady-state re-announcement interval under a
// shared bandwidth budget: each announcer sends its ad so that the whole
// population of announcements fits in bandwidthBps.
//
//	interval = max(MinInterval, totalAdBytes·8 / bandwidthBps)
//
// totalAdBytes is the summed size of all announcements heard in the scope
// (including our own); this is how every sdr instance independently
// arrives at a compatible rate.
func SteadyInterval(totalAdBytes int, bandwidthBps int) time.Duration {
	if bandwidthBps <= 0 {
		bandwidthBps = DefaultBandwidthBps
	}
	if totalAdBytes < 0 {
		totalAdBytes = 0
	}
	iv := time.Duration(float64(totalAdBytes*8) / float64(bandwidthBps) * float64(time.Second))
	if iv < MinInterval {
		return MinInterval
	}
	return iv
}

// Backoff is the paper's non-uniform announcement schedule (§2.3, §4):
// start from a high announcement rate and exponentially back off to the
// steady-state rate. The first repeat 5 s after the initial announcement
// cuts the mean discovery delay from ~12 s to ~0.3 s at 2% loss, improving
// the invisible-allocation fraction i by more than an order of magnitude.
type Backoff struct {
	// Initial is the first re-announcement delay (paper: 5 s).
	Initial time.Duration
	// Factor multiplies the delay each round (paper: exponential, 2).
	Factor float64
	// Steady caps the delay at the steady-state interval.
	Steady time.Duration
}

// DefaultBackoff returns the paper's recommended schedule with the given
// steady-state interval.
func DefaultBackoff(steady time.Duration) Backoff {
	if steady <= 0 {
		steady = MinInterval
	}
	return Backoff{Initial: 5 * time.Second, Factor: 2, Steady: steady}
}

// CompressedBackoff is the paper's doubling schedule started at initial,
// with Steady at 4× initial: sdrd's -announce-initial, for tests and chaos
// harnesses that cannot wait out the 5 s start. Zero is the zero Backoff,
// which a Directory replaces with its default. A Directory raises Steady
// to the bandwidth-derived SteadyInterval, never under MinInterval, so
// the announcements keep doubling past 4× initial (a 2 s start announces
// at 0, 2, 6, 14, 30, 62 s).
func CompressedBackoff(initial time.Duration) Backoff {
	if initial <= 0 {
		return Backoff{}
	}
	b := DefaultBackoff(0)
	b.Initial = initial
	b.Steady = min(b.Steady, 4*initial)
	return b
}

// IntervalAfter returns the delay between the n-th announcement and the
// next (n = 0 is the delay after the very first announcement).
func (b Backoff) IntervalAfter(n int) time.Duration {
	if b.Initial <= 0 {
		return b.Steady
	}
	f := b.Factor
	if f < 1 {
		f = 1
	}
	d := float64(b.Initial)
	for i := 0; i < n; i++ {
		d *= f
		if time.Duration(d) >= b.Steady {
			return b.Steady
		}
	}
	if time.Duration(d) >= b.Steady {
		return b.Steady
	}
	return time.Duration(d)
}

// MeanDiscoveryDelay estimates the mean time for a receiver to learn of a
// new session under this schedule with per-packet loss rate p and network
// delay d: the first packet arrives with probability 1−p, otherwise the
// k-th retransmission wins. Used by the ablation benchmarks to connect the
// schedule to the allocator's invisible fraction.
func (b Backoff) MeanDiscoveryDelay(loss, networkDelay float64) float64 {
	mean := 0.0
	pNone := 1.0
	elapsed := 0.0
	for k := 0; k < 64; k++ {
		mean += pNone * (1 - loss) * (elapsed + networkDelay)
		pNone *= loss
		elapsed += b.IntervalAfter(k).Seconds()
		if pNone < 1e-12 {
			break
		}
	}
	return mean
}

// Entry is one cached session announcement.
type Entry struct {
	Desc *session.Description
	// FirstHeard is when the session entered the cache, in Unix seconds:
	// its one reader is the journal's learn record, which stores seconds.
	FirstHeard int64
	LastHeard  time.Time
	// Deleted marks an explicit SAP deletion (kept briefly to squelch
	// stale re-announcements from slow caches).
	Deleted bool
	// heapPos is the entry's slot in its cache's eviction order (1-based,
	// 0 = not in it; see index.go).
	heapPos int32
	// adBytes is the announcement size this entry contributes to the
	// bandwidth budget while live, cached at Observe/Restore time so the
	// running total can be maintained incrementally (and released exactly
	// on delete/evict without re-marshalling).
	adBytes int32
	// digest is 0 or the digest of the exact bytes Desc was parsed from
	// (sap.PayloadDigest under the owning directory's seed): every site
	// that assigns Desc assigns it too. A payload that arrives with the
	// same digest is this description again, and need not be parsed to be
	// known so (Unchanged).
	digest uint64
	// key is Desc.Key(), the key the cache holds the entry under — kept
	// so that refreshing an entry, and ordering entries, builds no string.
	// With FirstHeard in seconds and adBytes in 32 bits it fits the entry
	// into the 80-byte size class it was in without it.
	key string
}

// Key is Desc.Key(), for an entry a Cache holds.
func (e *Entry) Key() string { return e.key }

// adSize is the bandwidth-budget cost of one announcement: SDP payload
// plus the SAP header, or a nominal size for descriptions that cannot
// marshal (matching the lazy accounting TotalAdBytes historically used).
// It counts the payload (session.Description.SDPLen) without writing it.
func adSize(d *session.Description) int32 {
	if d.Validate() != nil {
		return 256
	}
	return int32(d.SDPLen() + 8) // + SAP header
}

// Cache is the listened-session store: one entry map with the eviction
// order and allocator state of index.go riding on it. It is not safe for
// concurrent use; the directory agent serialises every access under its
// own mutex (DESIGN.md §17.1 records why there is no finer lock).
type Cache struct {
	entries map[string]*Entry
	// live and adBytes are running totals over non-deleted entries,
	// maintained at every mutation so Len and TotalAdBytes are O(1) —
	// they sit on the announcement-scheduling path of every send.
	live    int
	adBytes int
	// The eviction order (nil perOrigin = not tracked; entries of origin
	// self stay out of it) and the allocator state the entries are filed
	// in (nil = not tracked). See index.go.
	order     evictHeap
	perOrigin map[netip.Addr]int32
	self      netip.Addr
	state     *allocator.State
	space     mcast.AddrSpace
	// timeout evicts sessions not re-announced for this long. RFC 2974
	// uses max(1 h, 10×interval). It is fixed at NewCache: bound relies on
	// that.
	timeout time.Duration
	// bound is a lower bound on every entry's deadline, LastHeard + limit
	// (zero: no entry to bound), so an Expire at or before it has nothing
	// to do. It is lowered wherever a deadline can move earlier — an entry
	// added, a tombstone made, LastHeard set back by a clock that stepped
	// backwards — and recomputed exactly by every Expire that scans.
	// Removing an entry leaves it where it is: still a lower bound.
	// Deadlines compare as time.Time does (by monotonic reading when both
	// have one), so, like the eviction order, the bound is exact while the
	// cache's instants come from one clock; where recovered wall-only
	// instants sit beside monotonic ones, a step of the wall clock can hold
	// an expiry back until the next scan.
	bound time.Time
	// fresh is CountFresh's memo, kept at the same mutation sites once the
	// first CountFresh has armed it.
	fresh freshCount
}

// freshCount is the memo that lets CountFresh answer without a scan. Once
// armed by a scan at instant at, n is the number of live entries heard
// within staleAfter of at, kept exact at every mutation site (leave before
// an entry changes or goes, enter after it changes or comes), and bound is
// a lower bound on the instant the earliest counted entry turns stale
// (zero: none counted). For any now from at up to bound the counted entries
// are all still fresh, and the others — tombstones, and entries already
// stale at at — all still stale, so n is the count at now. Like Cache.bound
// it is exact while the cache's instants come from one clock.
type freshCount struct {
	armed      bool
	at         time.Time
	staleAfter time.Duration
	n          int
	bound      time.Time
}

// counts reports whether the memo counts e.
func (f *freshCount) counts(e *Entry) bool {
	return f.armed && !e.Deleted && f.at.Sub(e.LastHeard) < f.staleAfter
}

// leave uncounts e before it changes or leaves the cache.
func (f *freshCount) leave(e *Entry) {
	if f.counts(e) {
		f.n--
	}
}

// enter counts e, after it entered the cache or changed, if it is fresh
// at the memo's instant, lowering the bound to the instant it turns stale.
func (f *freshCount) enter(e *Entry) {
	if !f.counts(e) {
		return
	}
	f.n++
	if d := e.LastHeard.Add(f.staleAfter); f.bound.IsZero() || d.Before(f.bound) {
		f.bound = d
	}
}

// NewCache returns an empty cache with the given expiry timeout
// (0 = one hour).
func NewCache(timeout time.Duration) *Cache {
	if timeout <= 0 {
		timeout = time.Hour
	}
	return &Cache{entries: make(map[string]*Entry), timeout: timeout}
}

// Timeout is the expiry timeout the cache was made with.
func (c *Cache) Timeout() time.Duration { return c.timeout }

// limit is how long e may go unheard before Expire removes it: the
// timeout, or a tenth of it for a tombstone.
func (c *Cache) limit(e *Entry) time.Duration {
	if e.Deleted {
		return c.timeout / 10
	}
	return c.timeout
}

// lowerBound brings bound down to e's deadline if that is earlier.
func (c *Cache) lowerBound(e *Entry) {
	if d := e.LastHeard.Add(c.limit(e)); c.bound.IsZero() || d.Before(c.bound) {
		c.bound = d
	}
}

// add files a new entry under its key.
func (c *Cache) add(e *Entry) {
	c.entries[e.key] = e
	c.orderAdd(e)
	c.lowerBound(e)
	c.enter(e)
}

// drop takes an entry out of the cache.
func (c *Cache) drop(e *Entry) {
	c.leave(e)
	delete(c.entries, e.key)
	c.orderDrop(e)
}

// leave uncounts e — from live and adBytes, the fresh count and the
// allocator state — before it changes or leaves the cache; enter counts
// it after it came or changed. A tombstone counts in none of them.
func (c *Cache) leave(e *Entry) {
	if !e.Deleted {
		c.live--
		c.adBytes -= int(e.adBytes)
	}
	c.fresh.leave(e)
	if idx, ok := c.member(e); ok {
		c.state.Remove(idx, e.Desc.TTL)
	}
}

func (c *Cache) enter(e *Entry) {
	if !e.Deleted {
		c.live++
		c.adBytes += int(e.adBytes)
	}
	c.fresh.enter(e)
	if idx, ok := c.member(e); ok {
		c.state.Add(idx, e.Desc.TTL)
	}
}

// heard sets e's LastHeard to now; a clock that went backwards moves e's
// deadline earlier, and the bound with it.
func (c *Cache) heard(e *Entry, now time.Time) {
	back := now.Before(e.LastHeard)
	e.LastHeard = now
	if back {
		c.lowerBound(e)
	}
}

// Observe records an announcement, returning the entry and whether the
// session (or a new version of it) was previously unknown — in which case
// the entry now holds d and Get returns it.
func (c *Cache) Observe(d *session.Description, now time.Time) (*Entry, bool) {
	return c.ObserveParsed(d.Key(), d, 0, now)
}

// ObserveParsed is Observe for a caller that already holds key = d.Key(),
// and, if it parsed d from a payload, that payload's digest (0 = none): if
// the entry takes d it takes the digest with it, and Unchanged will know
// the payload again.
func (c *Cache) ObserveParsed(key string, d *session.Description, digest uint64, now time.Time) (*Entry, bool) {
	e, ok := c.entries[key]
	if !ok {
		e = &Entry{Desc: d, FirstHeard: now.Unix(), LastHeard: now, adBytes: adSize(d), digest: digest, key: key}
		c.add(e)
		return e, true
	}
	c.leave(e)
	// An older version replaces nothing — not even a tombstone, which
	// stays deleted — so it is never fresh.
	fresh := false
	if d.Version >= e.Desc.Version {
		fresh = d.Version > e.Desc.Version || e.Deleted
		e.Desc, e.digest, e.Deleted, e.adBytes = d, digest, false, adSize(d)
	}
	c.heard(e, now)
	c.enter(e)
	c.orderFix(e)
	return e, fresh
}

// Unchanged returns the live entry under key whose description was parsed
// from a payload with this digest, if there is one: the payload in hand
// is then that announcement again, byte for byte. key is only where to
// look (session.PeekKey's guess will do): the digest is what identifies
// the bytes, and the entry found is filed under the key those bytes parse
// to, so a wrong guess finds nothing or an entry with another digest.
func (c *Cache) Unchanged(key []byte, digest uint64) (*Entry, bool) {
	e, ok := c.entries[string(key)]
	if !ok || e.Deleted || digest == 0 || e.digest != digest {
		return nil, false
	}
	return e, true
}

// Touch records that e's announcement was heard again, unchanged: what
// ObserveParsed does for a description equal to the one the entry holds,
// without one to give it. The fresh count costs it one branch until a
// CountFresh arms it.
func (c *Cache) Touch(e *Entry, now time.Time) {
	if c.fresh.armed {
		c.fresh.leave(e)
		c.heard(e, now)
		c.fresh.enter(e)
	} else {
		c.heard(e, now)
	}
	if e.heapPos > 0 {
		heap.Fix(&c.order, int(e.heapPos-1))
	}
}

// Restore merges one persisted entry: entries stale relative to now are
// skipped, and fresher in-memory state wins over disk state (version
// upgrades excepted). The journaled store replays snapshot and journal
// records through this one entry at a time, with the digest of the
// record's own SDP bytes (0 = none). Reports whether the entry was added
// as new.
func (c *Cache) Restore(desc *session.Description, digest uint64, first, last, now time.Time) bool {
	if now.Sub(last) > c.timeout {
		return false // stale on disk
	}
	key := desc.Key()
	if existing, ok := c.entries[key]; ok {
		// In-memory state is at least as fresh; only upgrade versions.
		if desc.Version > existing.Desc.Version && !existing.Deleted {
			c.leave(existing)
			existing.Desc, existing.digest, existing.adBytes = desc, digest, adSize(desc)
			c.enter(existing)
			c.orderFix(existing)
		}
		return false
	}
	e := &Entry{
		Desc:       desc,
		FirstHeard: first.Unix(),
		LastHeard:  last,
		adBytes:    adSize(desc),
		digest:     digest,
		key:        key,
	}
	c.add(e)
	return true
}

// Delete marks a session deleted (explicit SAP deletion packet).
func (c *Cache) Delete(key string, now time.Time) {
	if e, ok := c.entries[key]; ok {
		c.leave(e) // a tombstone is not counted again
		e.Deleted = true
		e.LastHeard = now
		c.orderFix(e)
		c.lowerBound(e) // a tombstone's limit is a tenth of the timeout
	}
}

// Get returns a live (non-deleted) entry.
func (c *Cache) Get(key string) (*Entry, bool) {
	e, ok := c.entries[key]
	if !ok || e.Deleted {
		return nil, false
	}
	return e, true
}

// Peek returns the entry for key whether or not it is deleted — the
// admission layer validates incoming packets against tombstones too
// (a deleted session must not be resurrected by a replayed announcement
// of the same version).
func (c *Cache) Peek(key string) (*Entry, bool) {
	e, ok := c.entries[key]
	return e, ok
}

// Remove hard-deletes an entry (admission-layer eviction). Unlike Delete
// it leaves no tombstone: the budget counts tombstones as occupancy, so
// eviction must actually release the slot.
func (c *Cache) Remove(key string) {
	if e, ok := c.entries[key]; ok {
		c.drop(e)
	}
}

// Size returns the total number of entries, including deletion
// tombstones — the memory footprint the session budget bounds.
func (c *Cache) Size() int {
	return len(c.entries)
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.live } //mclint:unused pinned by benchmark/shadow.go

// Expire evicts entries unheard for Timeout (and deleted entries unheard
// for Timeout/10), returning the evicted keys in sorted order. The sort
// matters: expiry order reaches the trace, the event stream, and the
// journal, all of which must replay identically from a seed. Until now
// passes the earliest deadline's bound nothing can be due, and Expire
// returns without looking at an entry; a call past it scans them all and
// sets the bound to the earliest deadline among those that stay.
func (c *Cache) Expire(now time.Time) []string {
	if !now.After(c.bound) {
		return nil
	}
	var evicted []string
	c.bound = time.Time{}
	for key, e := range c.entries { //mclint:maporder evictions are sorted before returning; the bound is a minimum
		if now.Sub(e.LastHeard) <= c.limit(e) {
			c.lowerBound(e)
			continue
		}
		c.drop(e)
		evicted = append(evicted, key)
	}
	sort.Strings(evicted)
	return evicted
}

// All returns every entry including deletion tombstones (iteration order
// unspecified); the admission layer builds eviction candidates from it.
func (c *Cache) All() []*Entry {
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries { //mclint:maporder consumers are order-insensitive or sort
		out = append(out, e)
	}
	return out
}

// Live returns all live entries (iteration order unspecified).
func (c *Cache) Live() []*Entry {
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries { //mclint:maporder consumers are order-insensitive or sort
		if !e.Deleted {
			out = append(out, e)
		}
	}
	return out
}

// CountFresh counts live entries heard within staleAfter of now — the
// degradation tiers' pressure signal. The fresh count answers it while now
// is neither before the instant of its last scan nor past its bound and
// staleAfter is the one it was taken with; any other call — the first, a
// clock that stepped back, an entry that has since gone stale, another
// staleAfter — scans the entries once and re-arms it there. The answer is
// the scan's either way.
func (c *Cache) CountFresh(now time.Time, staleAfter time.Duration) int {
	f := &c.fresh
	if f.armed && staleAfter == f.staleAfter && !now.Before(f.at) && (f.bound.IsZero() || now.Before(f.bound)) {
		return f.n
	}
	*f = freshCount{armed: true, at: now, staleAfter: staleAfter}
	for _, e := range c.entries { //mclint:maporder commutative count; the bound is a minimum
		f.enter(e)
	}
	return f.n
}

// TotalAdBytes is the summed announcement size of live entries for the
// bandwidth budget: SDP payload + SAP header per entry, a nominal size
// for invalid cached descriptions. Maintained incrementally, so this is
// O(1) — it runs on every announcement send.
func (c *Cache) TotalAdBytes() int { return c.adBytes }

// SortByKey sorts entries, which a Cache holds, by Entry.Key.
func SortByKey(entries []*Entry) {
	slices.SortFunc(entries, func(a, b *Entry) int { return strings.Compare(a.key, b.key) })
}
