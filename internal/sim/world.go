package sim

import (
	"fmt"
	"math"
	"math/bits"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/topology"
)

// Session is one live simulated session. Its size is most of what a
// placement allocates (the session slice grows by appending), so the scope
// is a class id rather than a pointer and the chain links are int32.
type Session struct {
	Origin topology.NodeID
	Addr   mcast.Addr
	TTL    mcast.TTL
	class  uint16 // the scope set's ReachCache class (NodeSet.ID)
	// next chains the session into its class's list (inClass) and its
	// address's list (atAddr), by index into World.sessions; none ends one.
	next [2]int32
}

// The two chains a session is on, indexing Session.next.
const (
	inClass = iota
	atAddr
)

// none ends a session chain.
const none int32 = -1

// scopeClass is one scope class's session chain. Only an occupied class
// (n > 0) is read: set and head are set when it becomes occupied.
type scopeClass struct {
	set  *topology.NodeSet
	head int32 // first session of the class
	n    int32 // sessions in the class
	slot int32 // position in World.occupied
}

// World is the state of one allocation simulation: the topology, the scope
// cache and the live session set. A World belongs to a single trial (one
// goroutine); the ReachCache it references may be shared across many
// concurrent worlds.
//
// The sessions are indexed twice, so that neither question a placement
// asks reads the whole set. Each session is chained into its scope class
// (the cache interns equal scope sets, so a few hundred classes cover
// thousands of (origin, TTL) pairs), and the classes holding sessions are
// listed: VisibleAt tests each occupied class's set once and copies the
// members of those that contain the observer. Each session is also chained
// under its address: Clashes tests only the sessions sharing the address.
type World struct {
	Graph *topology.Graph
	Cache *topology.ReachCache
	// sessions keeps the order callers index into: appended by Add,
	// swap-with-last removed by RemoveAt (seeded victims depend on both).
	sessions []Session
	classes  []scopeClass // by class id, sized from the cache's class count
	occupied []uint16     // ids of the classes with at least one session
	addrHead []int32      // first session at each address, or none
	// visScratch backs VisibleAt so the per-allocation hot path does not
	// allocate O(sessions) per step.
	visScratch []allocator.SessionInfo
}

// NewWorld returns an empty world over g with its own private scope cache.
func NewWorld(g *topology.Graph) *World {
	return NewWorldWithCache(g, nil)
}

// NewWorldWithCache returns an empty world over g backed by a shared scope
// cache — the form the parallel experiment engine uses, so every trial of
// a sweep reuses one cache's trees and reach sets instead of recomputing
// them per trial. A nil cache means a private one.
func NewWorldWithCache(g *topology.Graph, cache *topology.ReachCache) *World {
	if cache == nil {
		cache = topology.NewReachCache(g)
	}
	w := &World{Graph: g, Cache: cache}
	w.growClasses(0)
	return w
}

// Len returns the live session count.
func (w *World) Len() int { return len(w.sessions) }

// At returns session i.
func (w *World) At(i int) Session { return w.sessions[i] }

// VisibleAt returns the sessions whose announcements reach the observer,
// in allocator form and in no particular order (every allocator reduces
// the view to an address set and class counts). The returned slice is
// backed by a per-world scratch buffer: it is valid until the next
// VisibleAt call on this world and must not be retained (the Allocator
// contract already forbids retention).
//
// Each step along a chain waits on the load of the session it names, so
// the walk takes up to eight visible classes' chains in turns: their loads
// are independent and overlap (10 % of a 100k-session placement).
func (w *World) VisibleAt(observer topology.NodeID) []allocator.SessionInfo {
	out := w.visScratch[:0]
	var cur [8]int32 // the chains being walked: their next sessions
	n, k := 0, 0     // chains in cur; occupied classes tested so far
	for {
		for ; n < len(cur) && k < len(w.occupied); k++ {
			if c := &w.classes[w.occupied[k]]; c.set.Contains(observer) {
				cur[n] = c.head
				n++
			}
		}
		if n == 0 {
			break
		}
		for m := 0; m < n; {
			s := &w.sessions[cur[m]]
			out = append(out, allocator.SessionInfo{Addr: s.Addr, TTL: s.TTL})
			if cur[m] = s.next[inClass]; cur[m] != none {
				m++
			} else { // chain done: the last one takes its turn
				n--
				cur[m] = cur[n]
			}
		}
	}
	w.visScratch = out
	return out
}

// Clashes reports whether a session at (origin, ttl, addr) clashes with
// any live session: same address and intersecting scope sets, so that
// somewhere in the network both sessions' data would arrive on one group.
func (w *World) Clashes(origin topology.NodeID, ttl mcast.TTL, addr mcast.Addr) bool {
	if int(addr) >= len(w.addrHead) {
		return false
	}
	reach := w.Cache.Reach(origin, ttl)
	for j := w.addrHead[addr]; j != none; j = w.sessions[j].next[atAddr] {
		if w.classes[w.sessions[j].class].set.Intersects(reach) {
			return true
		}
	}
	return false
}

// clashIndex returns the index of a live session clashing with session i,
// or -1.
func (w *World) clashIndex(i int) int {
	s := &w.sessions[i]
	reach := w.classes[s.class].set
	for j := w.addrHead[s.Addr]; j != none; j = w.sessions[j].next[atAddr] {
		if int(j) != i && w.classes[w.sessions[j].class].set.Intersects(reach) {
			return int(j)
		}
	}
	return -1
}

// Add appends a session.
func (w *World) Add(origin topology.NodeID, ttl mcast.TTL, addr mcast.Addr) {
	reach := w.Cache.Reach(origin, ttl)
	id := reach.ID()
	if id >= len(w.classes) {
		w.growClasses(id)
	}
	i := int32(len(w.sessions))
	c := &w.classes[id]
	if c.n == 0 {
		c.set, c.head = reach, none
		c.slot = int32(len(w.occupied))
		w.occupied = append(w.occupied, uint16(id))
	}
	c.n++
	w.sessions = append(w.sessions, Session{
		Origin: origin, Addr: addr, TTL: ttl, class: uint16(id),
		next: [2]int32{c.head, none},
	})
	c.head = i
	w.linkAddr(i)
}

// RemoveAt deletes session i: the last session moves into its slot.
func (w *World) RemoveAt(i int) {
	last := int32(len(w.sessions) - 1)
	s := &w.sessions[i]
	c := &w.classes[s.class]
	w.unlink(&c.head, inClass, int32(i))
	w.unlink(&w.addrHead[s.Addr], atAddr, int32(i))
	if c.n--; c.n == 0 {
		moved := w.occupied[len(w.occupied)-1]
		w.occupied[c.slot] = moved
		w.classes[moved].slot = c.slot
		w.occupied = w.occupied[:len(w.occupied)-1]
	}
	if int32(i) != last {
		m := &w.sessions[last]
		w.relink(&w.classes[m.class].head, inClass, last, int32(i))
		w.relink(&w.addrHead[m.Addr], atAddr, last, int32(i))
		w.sessions[i] = *m
	}
	w.sessions = w.sessions[:last]
}

// SetAddr moves session i to addr, keeping the address index current.
func (w *World) SetAddr(i int, addr mcast.Addr) {
	s := &w.sessions[i]
	w.unlink(&w.addrHead[s.Addr], atAddr, int32(i))
	s.Addr = addr
	w.linkAddr(int32(i))
}

// linkAddr pushes session i onto its address's chain. A new address past
// the table grows it to the next power of two in one step.
func (w *World) linkAddr(i int32) {
	s := &w.sessions[i]
	if n := int(s.Addr) + 1; n > len(w.addrHead) {
		grown := make([]int32, 1<<bits.Len(uint(n-1)))
		copy(grown, w.addrHead)
		for a := len(w.addrHead); a < len(grown); a++ {
			grown[a] = none
		}
		w.addrHead = grown
	}
	s.next[atAddr] = w.addrHead[s.Addr]
	w.addrHead[s.Addr] = i
}

// unlink takes session i off chain k, whose first link is *head.
func (w *World) unlink(head *int32, k int, i int32) {
	w.relink(head, k, i, w.sessions[i].next[k])
}

// relink rewrites the link in chain k (first link *head) that points at
// session from to point at to instead.
func (w *World) relink(head *int32, k int, from, to int32) {
	p := head
	for *p != from {
		p = &w.sessions[*p].next[k]
	}
	*p = to
}

// growClasses sizes the class table for every class the cache has
// published, and at least for class id, in one step: a world over a warmed
// cache never grows it again.
func (w *World) growClasses(id int) {
	if id > math.MaxUint16 {
		panic(fmt.Sprintf("sim: scope class %d does not fit a Session's uint16", id))
	}
	n := min(max(w.Cache.Classes(), id), math.MaxUint16) + 1
	if n <= len(w.classes) {
		return
	}
	grown := make([]scopeClass, n)
	copy(grown, w.classes)
	w.classes = grown
}
