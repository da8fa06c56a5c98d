package sim

import (
	"fmt"
	"math"
	"math/bits"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/topology"
)

// Session is one live simulated session, as At reports it.
type Session struct {
	Origin topology.NodeID
	Addr   mcast.Addr
	TTL    mcast.TTL
}

// record is the world's entry for one session, in the order callers index
// into. Its size is most of what a placement allocates (the record list
// grows by appending), so the address and TTL live only in the session's
// class slot and the links are int32.
type record struct {
	origin topology.NodeID
	class  uint16 // the scope set's ReachCache class (NodeSet.ID)
	pos    int32  // the session's class slot: chunk id × chunkLen + index
	next   int32  // the next session at the same address, or none
}

// none ends an address chain and the free list.
const none int32 = -1

// A class's sessions are stored chunkLen to a chunk; chunks are carved
// slabLen at a time from slabs that never move.
const (
	chunkLen = 16
	slabLen  = 64
)

// chunk is one block of a class's sessions: what VisibleAt copies, and
// which session each slot belongs to.
type chunk struct {
	info  [chunkLen]allocator.SessionInfo
	owner [chunkLen]int32 // the session index in each slot
	// next is the class's next chunk (never read past its last), or, for a
	// chunk on the free list, the next free chunk.
	next int32
}

// scopeClass is one scope class's sessions: n of them, in a list of
// chunks from head. Only the head chunk is partly full: it holds
// (n-1)%chunkLen + 1 sessions, every later chunk chunkLen. Only a class
// with sessions (n > 0) is read: set and head are set by its first Add.
type scopeClass struct {
	set  *topology.NodeSet
	head int32
	n    int32
}

// World is the state of one allocation simulation: the topology, the scope
// cache and the live session set. A World belongs to a single trial (one
// goroutine); the ReachCache it references may be shared across many
// concurrent worlds.
//
// The sessions are indexed twice, so that neither question a placement
// asks reads the whole set. Each session's address and TTL are stored
// contiguously with the rest of its scope class (the cache interns equal
// scope sets, so a few hundred classes cover thousands of (origin, TTL)
// pairs), and the cache lists the classes holding each node: VisibleAt
// copies the blocks of the classes that contain the observer. Each session
// is also chained under its address: Clashes tests only the sessions
// sharing the address.
type World struct {
	Graph *topology.Graph
	Cache *topology.ReachCache
	// sessions keeps the order callers index into: appended by Add,
	// swap-with-last removed by RemoveAt (seeded victims depend on both).
	sessions []record
	classes  []scopeClass // by class id, sized from the cache's class count
	slabs    []*[slabLen]chunk
	carved   int32   // chunks taken from the slabs so far
	free     int32   // first recycled chunk, or none
	addrHead []int32 // first session at each address, or none
	// visScratch backs VisibleAt so the per-allocation hot path does not
	// allocate O(sessions) per step.
	visScratch []allocator.SessionInfo
}

// NewWorldWithCache returns an empty world over g backed by a shared scope
// cache — the form the parallel experiment engine uses, so every trial of
// a sweep reuses one cache's trees and reach sets instead of recomputing
// them per trial. A nil cache means a private one.
func NewWorldWithCache(g *topology.Graph, cache *topology.ReachCache) *World {
	if cache == nil {
		cache = topology.NewReachCache(g)
	}
	w := &World{Graph: g, Cache: cache, free: none}
	w.growClasses(0)
	return w
}

// Len returns the live session count.
func (w *World) Len() int { return len(w.sessions) }

// At returns session i.
func (w *World) At(i int) Session {
	s := &w.sessions[i]
	ch, k := w.slot(s.pos)
	return Session{Origin: s.origin, Addr: ch.info[k].Addr, TTL: ch.info[k].TTL}
}

// VisibleAt returns the sessions whose announcements reach the observer,
// in allocator form and in no particular order (every allocator reduces
// the view to an address set and class counts). The returned slice is
// backed by a per-world scratch buffer: it is valid until the next
// VisibleAt call on this world and must not be retained (the Allocator
// contract already forbids retention).
func (w *World) VisibleAt(observer topology.NodeID) []allocator.SessionInfo {
	out := w.visScratch[:0]
	for _, id := range w.Cache.Containing(observer) {
		if int(id) >= len(w.classes) {
			break // ids ascend, and the world has no session in a class past its table
		}
		c := &w.classes[id]
		if c.n == 0 {
			continue
		}
		ch := w.chunk(c.head)
		k := (c.n-1)%chunkLen + 1
		out = append(out, ch.info[:k]...)
		for rest := c.n - k; rest > 0; rest -= chunkLen {
			ch = w.chunk(ch.next)
			out = append(out, ch.info[:]...)
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
	for j := w.addrHead[addr]; j != none; j = w.sessions[j].next {
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
	ch, k := w.slot(s.pos)
	for j := w.addrHead[ch.info[k].Addr]; j != none; j = w.sessions[j].next {
		if int(j) != i && w.classes[w.sessions[j].class].set.Intersects(reach) {
			return int(j)
		}
	}
	return -1
}

// Add appends a session, writing it into its class's head chunk.
func (w *World) Add(origin topology.NodeID, ttl mcast.TTL, addr mcast.Addr) {
	reach := w.Cache.Reach(origin, ttl)
	id := reach.ID()
	if id >= len(w.classes) {
		w.growClasses(id)
	}
	c := &w.classes[id]
	if c.n == 0 {
		c.set = reach
	}
	k := c.n % chunkLen
	if k == 0 { // the head is full, or the class has none
		c.head = w.newChunk(c.head)
	}
	i := int32(len(w.sessions))
	ch := w.chunk(c.head)
	ch.info[k] = allocator.SessionInfo{Addr: addr, TTL: ttl}
	ch.owner[k] = i
	c.n++
	w.sessions = append(w.sessions, record{origin: origin, class: uint16(id), pos: c.head*chunkLen + k})
	w.linkAddr(i, addr)
}

// RemoveAt deletes session i. In its class, the class's last member moves
// into its slot, and a head chunk left empty is recycled; in the session
// order, the world's last session moves into index i.
func (w *World) RemoveAt(i int) {
	s := w.sessions[i]
	ch, k := w.slot(s.pos)
	w.unlink(ch.info[k].Addr, int32(i))
	c := &w.classes[s.class]
	c.n--
	if tail := c.head*chunkLen + c.n%chunkLen; s.pos != tail {
		tc, tk := w.slot(tail)
		ch.info[k], ch.owner[k] = tc.info[tk], tc.owner[tk]
		w.sessions[ch.owner[k]].pos = s.pos
	}
	if c.n%chunkLen == 0 {
		h := w.chunk(c.head)
		next := h.next
		h.next, w.free = w.free, c.head
		c.head = next
	}
	last := int32(len(w.sessions) - 1)
	if int32(i) != last {
		m := w.sessions[last]
		mc, mk := w.slot(m.pos)
		w.relink(mc.info[mk].Addr, last, int32(i))
		mc.owner[mk] = int32(i)
		w.sessions[i] = m
	}
	w.sessions = w.sessions[:last]
}

// SetAddr moves session i to addr, keeping the address index current.
func (w *World) SetAddr(i int, addr mcast.Addr) {
	ch, k := w.slot(w.sessions[i].pos)
	w.unlink(ch.info[k].Addr, int32(i))
	ch.info[k].Addr = addr
	w.linkAddr(int32(i), addr)
}

// chunk returns chunk id.
func (w *World) chunk(id int32) *chunk { return &w.slabs[id/slabLen][id%slabLen] }

// slot returns the chunk holding class slot pos, and pos's index in it.
func (w *World) slot(pos int32) (*chunk, int32) { return w.chunk(pos / chunkLen), pos % chunkLen }

// newChunk returns a chunk linked to next, recycled if one is free.
func (w *World) newChunk(next int32) int32 {
	id := w.free
	if id != none {
		w.free = w.chunk(id).next
	} else {
		if w.carved%slabLen == 0 {
			w.slabs = append(w.slabs, new([slabLen]chunk))
		}
		id = w.carved
		w.carved++
	}
	w.chunk(id).next = next
	return id
}

// linkAddr pushes session i onto addr's chain. A new address past the
// table grows it to the next power of two in one step.
func (w *World) linkAddr(i int32, addr mcast.Addr) {
	if n := int(addr) + 1; n > len(w.addrHead) {
		grown := make([]int32, 1<<bits.Len(uint(n-1)))
		copy(grown, w.addrHead)
		for a := len(w.addrHead); a < len(grown); a++ {
			grown[a] = none
		}
		w.addrHead = grown
	}
	w.sessions[i].next = w.addrHead[addr]
	w.addrHead[addr] = i
}

// unlink takes session i off addr's chain.
func (w *World) unlink(addr mcast.Addr, i int32) {
	w.relink(addr, i, w.sessions[i].next)
}

// relink rewrites the link in addr's chain that points at session from to
// point at to instead.
func (w *World) relink(addr mcast.Addr, from, to int32) {
	p := &w.addrHead[addr]
	for *p != from {
		p = &w.sessions[*p].next
	}
	*p = to
}

// growClasses sizes the class table for every class the cache has
// published, and at least for class id, in one step: a world over a warmed
// cache never grows it again.
func (w *World) growClasses(id int) {
	if id > math.MaxUint16 {
		panic(fmt.Sprintf("sim: scope class %d does not fit a record's uint16", id))
	}
	n := min(max(w.Cache.Classes(), id), math.MaxUint16) + 1
	if n <= len(w.classes) {
		return
	}
	grown := make([]scopeClass, n)
	copy(grown, w.classes)
	w.classes = grown
}
