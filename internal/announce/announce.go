// Package announce implements the announce/listen machinery of a session
// directory: the listened-session cache with expiry, the exponential
// back-off re-announcement schedule the paper's §4 recommends, and the
// SAP bandwidth budget that sets the steady-state announcement interval.
package announce

import (
	"container/heap"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
)

// DefaultBandwidthBps is the conventional SAP announcement bandwidth
// budget for a scope (4000 bits/second, shared by all announcers).
const DefaultBandwidthBps = 4000

// MinInterval is the default steady-state announcement interval (RFC 2974
// uses 300 s; with few sessions the budget allows faster but the default
// keeps chatter down). A Directory's default Backoff steadies at it; an
// explicit Backoff.Steady below it is honoured.
const MinInterval = 300 * time.Second

// SteadyInterval returns the shortest steady-state re-announcement
// interval under a shared bandwidth budget: each announcer sends its ad so
// that the whole population of announcements fits in bandwidthBps.
//
//	interval = totalAdBytes·8 / bandwidthBps
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
	return time.Duration(float64(totalAdBytes*8) / float64(bandwidthBps) * float64(time.Second))
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
// only to the bandwidth-derived SteadyInterval, so while the scope's
// announcements fit the budget a 2 s start announces at 0, 2, 6, 14 s and
// every 8 s after.
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

// Entry is one cached session announcement: what the protocol reads of
// the session, by value, and the payload it was heard as. A description
// with everything else in it — name, media, attributes — is parsed from
// the payload when something asks (Description); the cache holds none.
type Entry struct {
	// Desc is the session's summary. The field keeps the name it had when
	// it held the parsed description, for benchmark/shadow.go, which
	// reads it; ROADMAP item 7(i) renames it.
	Desc session.Summary
	// FirstHeard is when the session entered the cache, in Unix seconds:
	// its one reader is the journal's learn record, which stores seconds.
	FirstHeard int64
	LastHeard  time.Time
	// key is Desc.Key(), the key the cache holds the entry under — kept
	// so that refreshing an entry, and ordering entries, builds no string.
	key string
	// payload is the SDP payload Desc was read from, as heard: a copy made
	// when the entry took it, never the datagram's bytes. It is what a
	// checkpoint writes and a third-party defence sends, and its length
	// plus the SAP header is the entry's share of the bandwidth budget.
	payload string
	// digest is 0 or the digest of payload (sap.PayloadDigest under the
	// owning directory's seed): every site that assigns payload assigns it
	// too. A payload that arrives with the same digest is this one again,
	// and need not be read to be known so (Unchanged).
	digest uint64
	// node is the session's clash-tracker state, bound to key (Node).
	node clash.Node
	// heapPos is the entry's slot in its cache's eviction order (1-based,
	// 0 = not in it; see index.go).
	heapPos int32
	// Deleted marks an explicit SAP deletion (kept briefly to squelch
	// stale re-announcements from slow caches).
	Deleted bool
}

// newEntry is a new entry for the session s summarises, filed under key,
// first heard at first and last heard at last.
func newEntry(s session.Summary, key string, first int64, last time.Time) *Entry {
	e := &Entry{Desc: s, FirstHeard: first, LastHeard: last, key: key}
	e.node.Bind(&e.key)
	return e
}

// Node is the entry's clash-tracker state. The directory links it while
// the entry is a member (see member) of a key not its own; the cache
// unlinks it where the entry stops being one.
func (e *Entry) Node() *clash.Node { return &e.node }

// Key is Desc.Key(), for an entry a Cache holds.
func (e *Entry) Key() string { return e.key }

// Payload is the SDP payload the entry was heard as.
func (e *Entry) Payload() string { return e.payload }

// Description parses the entry's payload (Describe).
func (e *Entry) Description() *session.Description { return Describe(e.payload) }

// Describe parses a payload an entry held. It passed ParseSDP's checks
// when the entry took it, so it parses; the result is the caller's.
func Describe(payload string) *session.Description {
	d, err := session.ParseSDPString(payload)
	if err != nil {
		panic(fmt.Sprintf("announce: a cached payload does not parse: %v", err))
	}
	return d
}

// adBytes is the bandwidth-budget cost of e's announcement: the SDP
// payload plus the SAP header.
func (e *Entry) adBytes() int { return len(e.payload) + 8 }

// take gives e a new payload: the bytes heard, copied, unless they are
// those it holds.
func (e *Entry) take(payload []byte, digest uint64) {
	if string(payload) != e.payload {
		e.payload = string(payload)
	}
	e.digest = digest
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
	// self stay out of it), the allocator state the entries are filed in
	// (nil = not tracked) and the tracker of their nodes. See index.go.
	order     evictHeap
	perOrigin map[netip.Addr]originIndex
	self      netip.Addr
	state     *allocator.State
	space     mcast.AddrSpace
	tracker   *clash.Tracker
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
	c.forget(e)
}

// leave uncounts e — from live and adBytes, the fresh count and the
// allocator state — before it changes or leaves the cache; enter counts
// it after it came or changed. A tombstone counts in none of them.
func (c *Cache) leave(e *Entry) {
	if !e.Deleted {
		c.live--
		c.adBytes -= e.adBytes()
	}
	c.fresh.leave(e)
	if idx, ok := c.member(e); ok {
		c.state.Remove(idx, e.Desc.TTL)
	}
}

func (c *Cache) enter(e *Entry) {
	if !e.Deleted {
		c.live++
		c.adBytes += e.adBytes()
	}
	c.fresh.enter(e)
	if idx, ok := c.member(e); ok {
		c.state.Add(idx, e.Desc.TTL)
	} else {
		c.forget(e)
	}
}

// heard sets e's LastHeard to now; a clock that went backwards moves e's
// deadline earlier, and the bound with it, and its origin's bound in the
// eviction order. LastHeard keeps the wall reading only (Round(0)), as a
// restored entry's does, so that every LastHeard compares with every
// other, and with now, on one clock.
func (c *Cache) heard(e *Entry, now time.Time) {
	now = now.Round(0)
	back := now.Before(e.LastHeard)
	e.LastHeard = now
	if back {
		c.lowerBound(e)
		c.lowerOriginBound(e)
	}
}

// Observe records d as heard at now, as the payload MarshalSDP writes for
// it: the adapter for callers holding a description rather than the bytes
// of one (benchmark/shadow.go, mcbench, tests). The entry holds what that
// payload reads back as. A description that does not come back from its
// payload is not announceable, and the cache takes nothing from it (nil,
// false).
func (c *Cache) Observe(d *session.Description, now time.Time) (*Entry, bool) {
	payload, err := d.MarshalSDP()
	if err != nil {
		return nil, false
	}
	s, err := session.ScanSDP(payload)
	if err != nil {
		return nil, false
	}
	return c.ObserveHeard(s.Key(), s, payload, 0, now)
}

// ObserveHeard records an announcement heard as payload, which s was read
// from (session.ScanSDP) and key is s.Key() of, and whose digest is digest
// (0 = none). It returns the entry and whether the session (or a new
// version of it) was previously unknown. An entry that takes the
// announcement — a new one, or one at a version no newer — copies payload
// unless it holds those bytes already, and takes the digest with it, so
// Unchanged will know the payload again. payload may be on loan: nothing
// aliases it once the call returns.
func (c *Cache) ObserveHeard(key string, s session.Summary, payload []byte, digest uint64, now time.Time) (*Entry, bool) {
	e, ok := c.entries[key]
	if !ok {
		e = newEntry(s, key, now.Unix(), now.Round(0))
		e.take(payload, digest)
		c.add(e)
		return e, true
	}
	c.leave(e)
	wasDeleted := e.Deleted
	// An older version replaces nothing — not even a tombstone, which
	// stays deleted — so it is never fresh.
	fresh := false
	if s.Version >= e.Desc.Version {
		fresh = s.Version > e.Desc.Version || e.Deleted
		e.Desc, e.Deleted = s, false
		e.take(payload, digest)
	}
	c.heard(e, now)
	c.enter(e)
	c.orderFix(e, wasDeleted)
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
// ObserveHeard does for the payload the entry holds, without the payload. The fresh count costs it one branch until a
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

// Restore merges one persisted entry, heard as payload, which s was read
// from: entries stale relative to now are skipped, and fresher in-memory
// state wins over disk state (version upgrades excepted). The journaled
// store replays snapshot and journal records through this one entry at a
// time, with the digest of the record's payload (0 = none). payload is
// copied if it is taken. Reports whether the entry was added as new.
func (c *Cache) Restore(s session.Summary, payload []byte, digest uint64, first, last, now time.Time) bool {
	if now.Sub(last) > c.timeout {
		return false // stale on disk
	}
	key := s.Key()
	if existing, ok := c.entries[key]; ok {
		// In-memory state is at least as fresh; only upgrade versions.
		if s.Version > existing.Desc.Version && !existing.Deleted {
			c.leave(existing)
			existing.Desc = s
			existing.take(payload, digest)
			c.enter(existing)
			c.orderFix(existing, false)
		}
		return false
	}
	e := newEntry(s, key, first.Unix(), last)
	e.take(payload, digest)
	c.add(e)
	return true
}

// Delete marks a session deleted (explicit SAP deletion packet).
func (c *Cache) Delete(key string, now time.Time) {
	if e, ok := c.entries[key]; ok {
		c.leave(e) // a tombstone is not counted again
		wasDeleted := e.Deleted
		e.Deleted = true
		c.heard(e, now)
		c.orderFix(e, wasDeleted)
		c.lowerBound(e) // a tombstone's limit is a tenth of the timeout
		c.forget(e)
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
// for Timeout/10), returning their keys in sorted order. The order
// matters: expiry order reaches the trace, the event stream, and the
// journal, all of which must replay identically from a seed. Until now
// passes the earliest deadline's bound nothing can be due, and Expire
// returns without looking at an entry; a call past it scans them all and
// sets the bound to the earliest deadline among those that stay, and the
// eviction order's per-origin bounds to the earliest LastHeard.
func (c *Cache) Expire(now time.Time) []string {
	if !now.After(c.bound) {
		return nil
	}
	var evicted []string
	c.bound = time.Time{}
	c.unboundOrigins()
	for _, e := range c.entries { //mclint:maporder evictions are sorted before returning, unlinks commute, and the bound is a minimum
		if now.Sub(e.LastHeard) <= c.limit(e) {
			c.lowerBound(e)
			c.lowerOriginBound(e)
			continue
		}
		c.drop(e)
		evicted = append(evicted, e.key)
	}
	slices.Sort(evicted)
	return evicted
}

// All returns every entry including deletion tombstones (iteration order
// unspecified). Its only reader outside the tests is the pinned
// AllGrouped: the eviction plans read the order the cache keeps.
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
// bandwidth budget: SDP payload as heard + SAP header per entry.
// Maintained incrementally, so this is O(1) — it runs on every
// announcement send.
func (c *Cache) TotalAdBytes() int { return c.adBytes }

// SortByKey sorts entries, which a Cache holds, by Entry.Key.
func SortByKey(entries []*Entry) {
	slices.SortFunc(entries, func(a, b *Entry) int { return strings.Compare(a.key, b.key) })
}
