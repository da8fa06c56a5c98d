package announce

import (
	"container/heap"
	"net/netip"
	"slices"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
)

// Two indices ride on a Cache, kept current at the same mutation sites
// that keep live, adBytes and the fresh count current (ObserveParsed,
// Touch, Delete, Remove, Expire, Restore), so that neither the admission
// gate nor the allocator has to rebuild its picture of the cache per call:
//
//   - the eviction order (TrackOrder): a min-heap over the entries in
//     admission's eviction preference plus a count of entries per origin.
//     Evictable entries sort first, so they are a subtree at the heap's
//     root: asking for them walks that subtree and stops at the first
//     entry on each branch that is not, whatever the cache holds besides;
//   - the allocator view (TrackView): the live entries whose group lies in
//     the managed space, as members of a multiset of
//     allocator.SessionInfo that the caller owns and may add its own
//     sessions to, so that it hands its allocator one slice.
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

// evictable reports whether a newcomer may displace e: tombstones and
// entries unheard for more than staleAfter (admission's rule). In
// eviction order the evictable entries come first.
func (e *Entry) evictable(now time.Time, staleAfter time.Duration) bool {
	return e.Deleted || now.Sub(e.LastHeard) > staleAfter
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
// all future entries; call it once. Entries announced by self are left
// out: a directory's own origin is never an eviction candidate and does
// not count against its budgets.
func (c *Cache) TrackOrder(self netip.Addr) {
	c.self = self
	c.perOrigin = make(map[netip.Addr]int32)
	for _, e := range c.entries { //mclint:maporder heap layout varies with insertion order, the order it yields does not
		c.orderAdd(e)
	}
}

// TrackView starts filing the current and all future live entries inside
// space into view, as address indices, and keeping them current there;
// call it once. The set is the caller's, which may file members of its own
// in it: the cache adds, moves and removes only its entries'.
func (c *Cache) TrackView(space mcast.AddrSpace, view *ViewSet) {
	c.space, c.view = space, view
	for _, e := range c.entries { //mclint:maporder the view is a multiset
		c.viewSync(e)
	}
}

func (c *Cache) orderAdd(e *Entry) {
	if c.perOrigin == nil || e.Desc.Origin == c.self {
		return
	}
	heap.Push(&c.order, e)
	c.perOrigin[e.Desc.Origin]++
}

// viewSync makes the view agree with e: a member while live and inside
// the space, at its current address and scope.
func (c *Cache) viewSync(e *Entry) {
	if idx, ok := c.space.Index(e.Desc.Group); ok && !e.Deleted {
		c.view.Put(&e.viewPos, allocator.SessionInfo{Addr: idx, TTL: e.Desc.TTL})
	} else {
		c.view.Remove(&e.viewPos)
	}
}

// indexAdd enters a new entry into the indices.
func (c *Cache) indexAdd(e *Entry) {
	c.orderAdd(e)
	c.viewSync(e)
}

// indexUpdate re-places an entry whose LastHeard, Deleted or Desc changed.
// An entry's origin is part of its key, so the per-origin count stands.
func (c *Cache) indexUpdate(e *Entry) {
	if e.heapPos > 0 {
		heap.Fix(&c.order, int(e.heapPos-1))
	}
	c.viewSync(e)
}

// indexDrop takes an entry that is leaving the cache out of the indices.
func (c *Cache) indexDrop(e *Entry) {
	if e.heapPos > 0 {
		heap.Remove(&c.order, int(e.heapPos-1))
		// Zero counts are deleted so the table tracks resident origins,
		// not every origin ever heard.
		if n := c.perOrigin[e.Desc.Origin] - 1; n > 0 {
			c.perOrigin[e.Desc.Origin] = n
		} else {
			delete(c.perOrigin, e.Desc.Origin)
		}
	}
	c.view.Remove(&e.viewPos)
}

// Candidates is the number of entries in the eviction order: everything
// cached, tombstones included, except the tracking directory's own origin.
// (With the three methods after it, this is admission.Order.)
func (c *Cache) Candidates() int { return len(c.order) }

// CandidatesFrom is how many of the candidates origin announced.
func (c *Cache) CandidatesFrom(origin netip.Addr) int { return int(c.perOrigin[origin]) }

// AppendEvictable appends to dst the keys of the first n evictable
// candidates in eviction order (fewer if fewer exist).
func (c *Cache) AppendEvictable(dst []string, n int, now time.Time, staleAfter time.Duration) []string {
	if n != 1 {
		return c.appendEvictable(dst, n, netip.Addr{}, false, now, staleAfter)
	}
	// The case every admission into a full budget takes: evictable entries
	// sort first, so either the head of the order is evictable or nothing is.
	if len(c.order) > 0 && c.order[0].evictable(now, staleAfter) {
		dst = append(dst, c.order[0].key)
	}
	return dst
}

// AppendEvictableFrom is AppendEvictable restricted to origin's entries.
func (c *Cache) AppendEvictableFrom(dst []string, origin netip.Addr, n int, now time.Time, staleAfter time.Duration) []string {
	return c.appendEvictable(dst, n, origin, true, now, staleAfter)
}

// appendEvictable is the general case — an origin at its quota, or a
// cache more than one entry over budget: collect what is evictable (with
// fromOrigin set, only that origin's), sort it, take n. Evictable entries
// sort first, so every ancestor of one in the heap is evictable too: they
// form a subtree at the root, which the walk reads depth first, descending
// only below evictable entries. It costs the evictable entries and the
// non-evictable children that end each branch, not a pass over the order.
// The stack holds one pending sibling per level and the two children just
// found, so with at most 2³¹ entries (heapPos is an int32) 64 slots are
// more than it can need.
func (c *Cache) appendEvictable(dst []string, n int, origin netip.Addr, fromOrigin bool, now time.Time, staleAfter time.Duration) []string {
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
	slices.SortFunc(found, func(a, b *Entry) int {
		switch {
		case a == b:
			return 0
		case evictsBefore(a, b):
			return -1
		}
		return 1 // the order is total
	})
	for _, e := range found[:min(n, len(found))] {
		dst = append(dst, e.key)
	}
	return dst
}

// ViewSet is a multiset of allocator.SessionInfo with O(1) insert, update
// and removal, for views kept current instead of rebuilt. A member's owner
// stores the member's slot in an int32 of its own (1-based, 0 = not a
// member) and names the member by a pointer to it; the set rewrites that
// int32 when it moves the member. Order within the set is arbitrary and
// changes on removal — allocators treat a view as a multiset. Not safe
// for concurrent use.
type ViewSet struct {
	infos []allocator.SessionInfo
	slots []*int32 // slots[i] points at the int32 holding i+1
}

// Put inserts the member named by slot, or overwrites it if present.
func (v *ViewSet) Put(slot *int32, si allocator.SessionInfo) {
	if *slot > 0 {
		v.infos[*slot-1] = si
		return
	}
	v.infos = append(roomForOne(v.infos), si)
	v.slots = append(roomForOne(v.slots), slot)
	*slot = int32(len(v.infos))
}

// Remove deletes the member named by slot, if present, by moving the last
// member into its place.
func (v *ViewSet) Remove(slot *int32) {
	if *slot == 0 {
		return
	}
	i, last := int(*slot-1), len(v.infos)-1
	v.infos[i], v.slots[i] = v.infos[last], v.slots[last]
	*v.slots[i] = int32(i + 1)
	v.slots[last] = nil
	v.infos, v.slots = v.infos[:last], v.slots[:last]
	*slot = 0
}

// Len is the number of members.
func (v *ViewSet) Len() int { return len(v.infos) } //mclint:unused the root package's index tests count the owned view with it

// Members returns the members in place, valid until the set next
// changes; the caller must not modify them.
func (v *ViewSet) Members() []allocator.SessionInfo { return v.infos }
