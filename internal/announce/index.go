package announce

import (
	"container/heap"
	"net/netip"
	"slices"
	"time"

	"sessiondir/internal/admission"
	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
)

// Two indices ride on a Cache, kept current at the same mutation sites
// that keep live, adBytes and the fresh count current (ObserveHeard,
// Touch, Delete, Remove, Expire, Restore), so that neither the admission
// gate nor the allocator has to rebuild its picture of the cache per call:
//
//   - the eviction order (TrackOrder): a min-heap over the entries in
//     admission's eviction preference plus, per origin, a count of its
//     entries and of its tombstones and a lower bound on their LastHeard
//     (originIndex). Evictable entries sort first, so they are a subtree at
//     the heap's root: asking for them walks that subtree and stops at the
//     first entry on each branch that is not, whatever the cache holds
//     besides; asking for one origin's needs no walk while its counts
//     prove it has none. The budget's two plans read it: PlanNew for a
//     newcomer, Trim for a recovered cache;
//   - the allocator state (TrackState): the live entries whose group lies
//     in the managed space, filed as members of an allocator.State that
//     the caller owns and may file its own sessions in, so that its
//     allocator reads one State. Like the fresh count, an entry leaves it
//     before it changes or goes and enters it after it changes or comes.
//     A member's clash node may be linked in the tracker TrackState is
//     given; the cache unlinks it wherever the entry stops being one.
//
// Both are off until asked for, as is the fresh count (announce.go) until
// the first CountFresh, and all are covered by whatever serialises the
// Cache itself.

// evictsBefore is the total order admission evicts in (the comparator of
// admission's evictionOrder, which stays the specification): tombstones,
// then the longest unheard, then the smallest scope, then the key string.
func evictsBefore(a, b *Entry) bool {
	if a.Deleted != b.Deleted {
		return a.Deleted
	}
	if !a.LastHeard.Equal(b.LastHeard) {
		return a.LastHeard.Before(b.LastHeard)
	}
	if a.Desc.TTL != b.Desc.TTL {
		return a.Desc.TTL < b.Desc.TTL
	}
	// Key order is string order, not address order ("10.0.0.10/1" sorts
	// before "10.0.0.9/1").
	return a.key < b.key
}

// cmpEvict is evictsBefore as a three-way comparison.
func cmpEvict(a, b *Entry) int {
	switch {
	case a == b:
		return 0
	case evictsBefore(a, b):
		return -1
	}
	return 1 // the order is total
}

// evictable reports whether a newcomer may displace e: tombstones and
// entries unheard for more than staleAfter (admission's rule). In
// eviction order the evictable entries come first.
func (e *Entry) evictable(now time.Time, staleAfter time.Duration) bool {
	return e.Deleted || now.Sub(e.LastHeard) > staleAfter
}

// originIndex is what the eviction order keeps per origin: n, how many
// candidates it announced; tombs, how many of them are tombstones; and
// heard, a lower bound on their LastHeard. heard is lowered wherever an
// entry is added or its LastHeard set back, and recomputed exactly by
// every Expire that scans; an entry leaving or heard again leaves it where
// it is, still a lower bound. So while an origin has no tombstone and
// heard is within staleAfter of now, none of its entries is evictable.
// Every LastHeard is a wall reading (Cache.heard), so the bound and the
// entries it bounds are measured from now on the same clock.
type originIndex struct {
	n, tombs int32
	heard    time.Time
}

// evictHeap is the eviction order as a container/heap; every entry knows
// its own slot (heapPos, 1-based) so it can be fixed or removed in place.
type evictHeap []*Entry

func (h evictHeap) Len() int           { return len(h) }
func (h evictHeap) Less(i, j int) bool { return evictsBefore(h[i], h[j]) }
func (h evictHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapPos, h[j].heapPos = int32(i+1), int32(j+1)
}
func (h *evictHeap) Push(x any) {
	e := x.(*Entry)
	e.heapPos = int32(len(*h) + 1)
	*h = append(roomForOne(*h), e)
}
func (h *evictHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	e.heapPos = 0
	return e
}

// roomForOne returns s with spare capacity for one more element. It grows
// by an eighth, not by doubling: the index slices are as long as the
// cache and live as long, so append's slack would be resident memory.
func roomForOne[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)+len(s)/8+8), s...)
}

// TrackOrder starts maintaining the eviction order over the current and
// all future entries, whatever their origin; call it once. The directory
// keeps its own sessions out of the cache, not out of the order.
func (c *Cache) TrackOrder() {
	c.perOrigin = make(map[netip.Addr]originIndex)
	for _, e := range c.entries { //mclint:maporder heap layout varies with insertion order, the order it yields does not
		c.orderAdd(e)
	}
}

// TrackState starts filing every live entry inside space into state, as
// address indices, and keeping them current there; call it once, before
// the first entry. The State is the caller's, which may file members of
// its own in it: the cache adds and removes only its entries'. tracker,
// if not nil, is where the caller links its members' nodes (Entry.Node);
// the cache unlinks a node there when its entry stops being a member.
func (c *Cache) TrackState(space mcast.AddrSpace, state *allocator.State, tracker *clash.Tracker) {
	c.space, c.state, c.tracker = space, state, tracker
}

func (c *Cache) orderAdd(e *Entry) {
	if c.perOrigin == nil {
		return
	}
	heap.Push(&c.order, e)
	o := c.perOrigin[e.Desc.Origin]
	if o.n == 0 || e.LastHeard.Before(o.heard) {
		o.heard = e.LastHeard
	}
	o.n++
	if e.Deleted {
		o.tombs++
	}
	c.perOrigin[e.Desc.Origin] = o
}

// member reports the address e is filed at in the tracked allocator
// state, if it is filed there: while live, with its group inside the
// space.
func (c *Cache) member(e *Entry) (mcast.Addr, bool) {
	if c.state == nil || e.Deleted {
		return 0, false
	}
	return c.space.Index(e.Desc.Group)
}

// forget unlinks e's node, which only a member's may be linked.
func (c *Cache) forget(e *Entry) {
	if c.tracker != nil {
		c.tracker.ForgetNode(&e.node)
	}
}

// orderFix re-places an entry whose LastHeard, Deleted or Desc changed;
// wasDeleted is whether it was a tombstone before. An entry's origin is
// part of its key, so the per-origin count stands; a LastHeard set back
// has lowered the origin's bound already (heard).
func (c *Cache) orderFix(e *Entry, wasDeleted bool) {
	if e.heapPos == 0 {
		return
	}
	heap.Fix(&c.order, int(e.heapPos-1))
	if e.Deleted != wasDeleted {
		o := c.perOrigin[e.Desc.Origin]
		if e.Deleted {
			o.tombs++
		} else {
			o.tombs--
		}
		c.perOrigin[e.Desc.Origin] = o
	}
}

// unboundOrigins clears every origin's bound before a scanning Expire,
// whose pass over the entries sets it again, exactly, through
// lowerOriginBound: the zero time marks an origin none of its entries
// has reached yet.
func (c *Cache) unboundOrigins() {
	for origin, o := range c.perOrigin { //mclint:maporder each origin is reset on its own
		o.heard = time.Time{}
		c.perOrigin[origin] = o
	}
}

// lowerOriginBound lowers the bound of e's origin, if e is in the order,
// to e's LastHeard: after a clock that stepped back has set it earlier,
// and as Expire's step of the recomputation unboundOrigins starts.
func (c *Cache) lowerOriginBound(e *Entry) {
	if e.heapPos == 0 {
		return
	}
	if o := c.perOrigin[e.Desc.Origin]; o.heard.IsZero() || e.LastHeard.Before(o.heard) {
		o.heard = e.LastHeard
		c.perOrigin[e.Desc.Origin] = o
	}
}

// orderDrop takes an entry that is leaving the cache out of the eviction
// order.
func (c *Cache) orderDrop(e *Entry) {
	if e.heapPos > 0 {
		heap.Remove(&c.order, int(e.heapPos-1))
		// Zero counts are deleted so the table tracks resident origins,
		// not every origin ever heard.
		o := c.perOrigin[e.Desc.Origin]
		if o.n--; o.n == 0 {
			delete(c.perOrigin, e.Desc.Origin)
			return
		}
		if e.Deleted {
			o.tombs--
		}
		c.perOrigin[e.Desc.Origin] = o
	}
}

// Budget is what the eviction plans enforce over the order's candidates:
// a session budget and a per-origin quota (0 = unlimited each), and how
// long an entry goes unheard before a newcomer may displace it.
type Budget struct {
	MaxSessions, MaxPerOrigin int
	StaleAfter                time.Duration
}

// PlanNew is admission's PlanNew for a newcomer from origin, over the
// order instead of a fresh candidate list: the same outcome and the same
// evictions in the same sequence, without sorting the cache to find them.
// It asks only for as many evictions as the newcomer needs — one, when a
// full budget was within bounds before it arrived — and changes nothing:
// the caller applies Decision.Evict.
func (c *Cache) PlanNew(b Budget, origin netip.Addr, now time.Time) admission.Decision {
	var d admission.Decision
	if b.MaxPerOrigin > 0 {
		// Reclaim the origin's own stale/deleted entries before denying it.
		if need := int(c.perOrigin[origin].n) - b.MaxPerOrigin + 1; need > 0 {
			d.Evict = c.appendEvictableFrom(d.Evict, origin, need, now, b.StaleAfter)
			if len(d.Evict) < need {
				d.Outcome = admission.DenyQuota
				return d
			}
		}
	}
	if b.MaxSessions > 0 {
		reclaimed := d.Evict
		if need := len(c.order) - len(reclaimed) - b.MaxSessions + 1; need > 0 {
			// What the quota step reclaimed is still in the order: ask for
			// that many more and filter the repeats out in place.
			got := c.appendEvictable(reclaimed, need+len(reclaimed), now, b.StaleAfter)
			d.Evict = got[:len(reclaimed)]
			for _, k := range got[len(reclaimed):] {
				if need > 0 && !slices.Contains(reclaimed, k) {
					d.Evict = append(d.Evict, k)
					need--
				}
			}
			if need > 0 {
				d.Outcome = admission.Shed
				return d
			}
		}
	}
	d.Outcome = admission.Admit
	return d
}

// Trim returns the keys to evict so that the candidates fit b's session
// budget and every origin's quota: first each origin's earliest entries
// past its quota, then the earliest of the rest past the budget, in
// eviction order. It evicts stale or not — a checkpoint larger than the
// budget must not over-admit because its entries were recently saved.
// When the counts show the candidates fit, it returns nil and sorts
// nothing.
func (c *Cache) Trim(b Budget) []string {
	fits := b.MaxSessions <= 0 || len(c.order) <= b.MaxSessions
	if fits && b.MaxPerOrigin > 0 {
		for _, o := range c.perOrigin { //mclint:maporder any origin over its quota decides alike
			if int(o.n) > b.MaxPerOrigin {
				fits = false
				break
			}
		}
	}
	if fits {
		return nil
	}
	ordered := slices.SortedFunc(slices.Values(c.order), cmpEvict)
	gone := make([]bool, len(ordered))
	var evict []string
	if b.MaxPerOrigin > 0 {
		// An origin over its quota loses its entries that come first.
		seen := make(map[netip.Addr]int, len(c.perOrigin))
		for i, e := range ordered {
			o := e.Desc.Origin
			if seen[o]++; seen[o] <= int(c.perOrigin[o].n)-b.MaxPerOrigin {
				gone[i] = true
				evict = append(evict, e.key)
			}
		}
	}
	for i, e := range ordered {
		if b.MaxSessions <= 0 || len(ordered)-len(evict) <= b.MaxSessions {
			break
		}
		if !gone[i] {
			evict = append(evict, e.key)
		}
	}
	return evict
}

// appendEvictable appends to dst the keys of the first n evictable
// candidates in eviction order (fewer if fewer exist).
func (c *Cache) appendEvictable(dst []string, n int, now time.Time, staleAfter time.Duration) []string {
	if n != 1 {
		return c.walkEvictable(dst, n, netip.Addr{}, false, now, staleAfter)
	}
	// The case every admission into a full budget takes: evictable entries
	// sort first, so either the head of the order is evictable or nothing is.
	if len(c.order) > 0 && c.order[0].evictable(now, staleAfter) {
		dst = append(dst, c.order[0].key)
	}
	return dst
}

// appendEvictableFrom is appendEvictable restricted to origin's entries.
// An origin at its quota with every entry fresh — what a flood from one
// origin mostly is — is answered from its counts, without a walk.
func (c *Cache) appendEvictableFrom(dst []string, origin netip.Addr, n int, now time.Time, staleAfter time.Duration) []string {
	if c.noneEvictableFrom(origin, now, staleAfter) {
		return dst
	}
	return c.walkEvictable(dst, n, origin, true, now, staleAfter)
}

// noneEvictableFrom reports whether origin's counts prove that none of its
// candidates is evictable at now: it has none, or no tombstone and no
// entry heard more than staleAfter before now. The answer is exact.
func (c *Cache) noneEvictableFrom(origin netip.Addr, now time.Time, staleAfter time.Duration) bool {
	o := c.perOrigin[origin]
	return o.n == 0 || o.tombs == 0 && now.Sub(o.heard) <= staleAfter
}

// walkEvictable is the general case — an origin at its quota with an
// entry that may be evictable, or a cache more than one entry over
// budget: collect what is evictable (with fromOrigin set, only that
// origin's), sort it, take n. Evictable entries
// sort first, so every ancestor of one in the heap is evictable too: they
// form a subtree at the root, which the walk reads depth first, descending
// only below evictable entries. It costs the evictable entries and the
// non-evictable children that end each branch, not a pass over the order.
// The stack holds one pending sibling per level and the two children just
// found, so with at most 2³¹ entries (heapPos is an int32) 64 slots are
// more than it can need.
func (c *Cache) walkEvictable(dst []string, n int, origin netip.Addr, fromOrigin bool, now time.Time, staleAfter time.Duration) []string {
	if n <= 0 || len(c.order) == 0 {
		return dst
	}
	var found []*Entry
	var stack [64]int32
	top := 1 // stack[0] = 0, the root
	for top > 0 {
		top--
		i := int(stack[top])
		e := c.order[i]
		if !e.evictable(now, staleAfter) {
			continue
		}
		if !fromOrigin || e.Desc.Origin == origin {
			found = append(found, e)
		}
		for child := 2*i + 1; child <= 2*i+2 && child < len(c.order); child++ {
			stack[top] = int32(child)
			top++
		}
	}
	slices.SortFunc(found, cmpEvict)
	for _, e := range found[:min(n, len(found))] {
		dst = append(dst, e.key)
	}
	return dst
}
