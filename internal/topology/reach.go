package topology

import (
	"encoding/binary"
	"iter"
	"math/bits"
	"sync"
	"sync/atomic"

	"sessiondir/internal/mcast"
)

// NodeSet is a bitset over the nodes of a graph, used to hold reachability
// ("scope") sets compactly so visibility and clash tests are word-parallel.
type NodeSet struct {
	words []uint64
	id    int // dense class id a ReachCache gave it; 0 if none did
}

// NewNodeSet returns an empty set over n nodes.
func NewNodeSet(n int) *NodeSet {
	return &NodeSet{words: make([]uint64, (n+63)/64)}
}

// ID returns the set's scope class: a ReachCache hands out one *NodeSet per
// distinct member set, numbered densely from 1 in publication order, so
// two sets from the same cache have equal ids exactly when they have equal
// members (and are then the same pointer). Sets no cache built have id 0.
func (s *NodeSet) ID() int { return s.id }

// Add inserts v.
func (s *NodeSet) Add(v NodeID) { s.words[v>>6] |= 1 << (uint(v) & 63) }

// Contains reports membership of v.
func (s *NodeSet) Contains(v NodeID) bool {
	return s.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Len returns the number of members.
func (s *NodeSet) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Intersects reports whether s and t share any member.
//
// Both sets must be over the same node universe (built for the same
// graph). When the universes differ, the comparison silently truncates to
// the shorter set's words: members of the larger universe beyond the
// smaller one's range can never register an intersection. Cross-graph
// comparisons are therefore meaningless — node 5 of one topology has no
// relation to node 5 of another — and callers are expected never to mix
// sets from different graphs. TestNodeSetIntersectsMismatchedUniverses
// pins the truncation behaviour.
func (s *NodeSet) Intersects(t *NodeSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// All yields the members in ascending order, allocating nothing.
func (s *NodeSet) All() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for wi, w := range s.words {
			for w != 0 {
				if !yield(NodeID(wi*64 + bits.TrailingZeros64(w))) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Members returns the members in ascending order.
func (s *NodeSet) Members() []NodeID {
	out := make([]NodeID, 0, s.Len())
	for v := range s.All() {
		out = append(out, v)
	}
	return out
}

// Reach computes the set of nodes whose attached hosts receive a multicast
// packet sent from src with the given TTL, assuming DVMRP-style forwarding
// along src's shortest path tree.
//
// The TTL rule follows §1 of the paper: each router hop decrements the TTL;
// a packet crosses a link only if the decremented TTL is still positive and
// is not below the link's configured threshold. The source's own node is
// always in the set (hosts on the source LAN receive at any TTL >= 1).
func Reach(g *Graph, t *Tree, ttl mcast.TTL) *NodeSet { //mclint:unused the root package's BenchmarkReachComputation times it
	return reachSet(minTTLs(g, t), ttl)
}

// minTTLs returns, for each node, the least TTL at which a packet from
// t.Root reaches it under Reach's rule, or 0 if none does. The packet
// crosses the link into a node at depth d with TTL-d left, so it needs
// d+max(1, threshold) there and whatever the node's parent needed.
func minTTLs(g *Graph, t *Tree) []uint8 {
	need := make([]uint8, g.NumNodes())
	need[t.Root] = 1
	stack := []NodeID{t.Root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children(u) {
			e, ok := g.EdgeBetween(u, c)
			if !ok {
				continue
			}
			m := max(int(need[u]), int(t.depth[c])+max(1, int(e.Threshold)))
			if m > int(mcast.MaxTTL) {
				continue // no TTL reaches c, nor anything below it
			}
			need[c] = uint8(m)
			stack = append(stack, c)
		}
	}
	return need
}

// reachSet is the scope at ttl of the source whose minTTLs are need.
func reachSet(need []uint8, ttl mcast.TTL) *NodeSet {
	s := NewNodeSet(len(need))
	for v, m := range need {
		if m != 0 && mcast.TTL(m) <= ttl {
			s.Add(NodeID(v))
		}
	}
	return s
}

// ReachCache memoises Reach sets keyed by (source, TTL). The allocation
// simulations look up the same scopes repeatedly; a run over the
// 1864-node Mbone touches only a few thousand distinct (source, TTL) pairs.
//
// Of a source it keeps one record: minTTLs, one byte per node, from which
// the scope at every TTL follows, and the sets asked for so far. The
// source's tree is built on its first miss and dropped.
//
// Many keys share one set: on the 400-node Mbone the 2 800 (source, DS4
// TTL) keys hold 556 distinct sets, since at the wider TTLs every source
// inside one scoped region reaches the same region. The cache interns
// them: a miss publishes the set already held with the same members, if
// there is one, so each distinct set is one *NodeSet with its own dense
// ID — the scope classes sim.World stores its sessions by. Publishing a
// set also lists its ID under each of its members (Containing), so the
// classes an observer sees are found without testing every class.
//
// The cache is safe for concurrent use: the parallel experiment engine
// shares one cache across all workers of a sweep. A hit is one atomic
// load of the source's record and takes no lock. A miss computes the set
// outside any lock, then takes the intern table's lock to publish a copy
// of the record one set longer (a racing duplicate computation is
// possible but harmless: the first published set wins, and Reach is a
// pure function). Containing takes no lock either, so the workers'
// placements never wait on each other. Returned *NodeSet values are
// shared and must be treated as read-only.
type ReachCache struct {
	g *Graph
	// bySrc[src] is src's record, nil before its first miss. A published
	// record never changes.
	bySrc []atomic.Pointer[reachRecord]

	internMu sync.Mutex
	interned map[string]*NodeSet // member words, little-endian → the set
	// containing[v] lists, in publication order, the IDs of the published
	// sets that hold node v. Under internMu, each publication replaces the
	// list with a copy one longer; a published list never changes, so
	// Containing reads it without a lock.
	containing []atomic.Pointer[[]int32]
}

// reachRecord is what a ReachCache keeps of one source.
type reachRecord struct {
	need   []uint8 // minTTLs of the source's tree
	scopes []reachScope
}

type reachScope struct {
	ttl mcast.TTL
	set *NodeSet
}

// scope returns the set published for ttl, or nil; r may be nil.
func (r *reachRecord) scope(ttl mcast.TTL) *NodeSet {
	if r == nil {
		return nil
	}
	for _, p := range r.scopes {
		if p.ttl == ttl {
			return p.set
		}
	}
	return nil
}

// NewReachCache returns an empty cache over g.
func NewReachCache(g *Graph) *ReachCache {
	n := g.NumNodes()
	return &ReachCache{
		g:          g,
		bySrc:      make([]atomic.Pointer[reachRecord], n),
		interned:   make(map[string]*NodeSet),
		containing: make([]atomic.Pointer[[]int32], n),
	}
}

// Reach returns (building if needed) the scope set of (src, ttl).
func (c *ReachCache) Reach(src NodeID, ttl mcast.TTL) *NodeSet {
	rec := c.bySrc[src].Load()
	if s := rec.scope(ttl); s != nil {
		return s
	}
	var need []uint8
	if rec != nil {
		need = rec.need
	} else {
		need = minTTLs(c.g, NewSPTree(c.g, src))
	}
	s := reachSet(need, ttl)
	key := make([]byte, 0, 8*len(s.words))
	for _, w := range s.words {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	k := string(key)
	members := s.Members()
	c.internMu.Lock()
	rec = c.bySrc[src].Load()                //mclint:lockscope atomic read of the record this publication replaces
	if prev := rec.scope(ttl); prev != nil { //mclint:lockscope a scan of a published record, which never changes
		s = prev // another worker got here first; both went through the intern table
	} else {
		if prev := c.interned[k]; prev != nil {
			s = prev
		} else {
			s.id = len(c.interned) + 1
			c.interned[k] = s
			for _, v := range members {
				var old []int32
				if l := c.containing[v].Load(); l != nil { //mclint:lockscope atomic read of the list this publication replaces
					old = *l
				}
				ids := make([]int32, len(old)+1) // a copy: a published list never changes
				copy(ids, old)
				ids[len(old)] = int32(s.id)
				c.containing[v].Store(&ids) //mclint:lockscope atomic publication; internMu orders the replacements of one list
			}
		}
		var old []reachScope
		if rec != nil {
			need, old = rec.need, rec.scopes
		}
		scopes := make([]reachScope, len(old)+1) // a copy: a published record never changes
		copy(scopes, old)
		scopes[len(old)] = reachScope{ttl, s}
		c.bySrc[src].Store(&reachRecord{need, scopes}) //mclint:lockscope atomic publication; internMu orders the replacements of one record
	}
	c.internMu.Unlock()
	return s
}

// Classes returns how many distinct sets the cache has published so far:
// every ID it has handed out is in [1, Classes()].
func (c *ReachCache) Classes() int {
	c.internMu.Lock()
	n := len(c.interned)
	c.internMu.Unlock()
	return n
}

// Containing returns the IDs of the published sets that hold node v, in
// ascending order, without taking a lock. The slice is shared and must not
// be modified; a later publication replaces the cache's list with a longer
// copy, so the slice a caller holds stays valid and is a prefix of every
// later one. Its capacity is its length, so a caller's append copies.
func (c *ReachCache) Containing(v NodeID) []int32 {
	if l := c.containing[v].Load(); l != nil {
		return *l
	}
	return nil
}
