package allocator

import (
	"slices"

	"sessiondir/internal/mcast"
)

// State is a view reduced to what every allocator reads — which addresses
// are in use, and how many sessions hold each TTL — and kept current, with
// O(1) Add and Remove, instead of rebuilt (a listed State, below, pays a
// scan of its members per Remove). It is a multiset: an address two
// sessions share stays in use until both are removed. A session outside
// the space counts toward its TTL but marks no address: it can never
// collide with a pick. A State is not safe for concurrent use.
type State struct {
	used usedSet
	// extra counts, per shared address, the members beyond the first:
	// sparse, as sharing is rare and a count per address would cost a
	// directory tens of kilobytes.
	extra   map[mcast.Addr]int32
	ttls    [256]int32 // members per TTL
	present [4]uint64  // the TTLs with members, one bit each
	// list holds the members themselves, in no set order, for an
	// Allocator that reads only a slice; kept only when listed (StateFor).
	list   []SessionInfo
	listed bool
}

// NewState returns an empty State over a space of the given size.
func NewState(size uint32) *State {
	s := &State{extra: make(map[mcast.Addr]int32)}
	s.used.reset(size)
	return s
}

// StateFor returns an empty State over a's space for AllocateFrom to
// read. If a is not a StateAllocator the State also lists its members,
// which AllocateFrom hands a as its view; Remove then scans that list.
func StateFor(a Allocator) *State {
	s := NewState(a.Size())
	_, reads := a.(StateAllocator)
	s.listed = !reads
	return s
}

// Add files a session of scope ttl at address a.
func (s *State) Add(a mcast.Addr, ttl mcast.TTL) {
	s.ttls[ttl]++
	s.present[ttl>>6] |= 1 << (ttl & 63)
	if s.listed {
		s.list = append(s.list, SessionInfo{Addr: a, TTL: ttl})
	}
	switch {
	case uint32(a) >= s.used.size:
	case s.used.has(a):
		s.extra[a]++
	default:
		s.used.add(a)
	}
}

// Remove takes out a session Add filed (one never filed is a caller error
// it does not detect): O(1), or O(members) on a listed State.
func (s *State) Remove(a mcast.Addr, ttl mcast.TTL) {
	if s.ttls[ttl]--; s.ttls[ttl] == 0 {
		s.present[ttl>>6] &^= 1 << (ttl & 63)
	}
	if i := slices.Index(s.list, SessionInfo{Addr: a, TTL: ttl}); i >= 0 {
		last := len(s.list) - 1
		s.list[i] = s.list[last]
		s.list = s.list[:last]
	}
	switch n := s.extra[a]; {
	case uint32(a) >= s.used.size:
	case n > 1:
		s.extra[a] = n - 1
	case n == 1:
		delete(s.extra, a)
	default:
		s.used.remove(a)
	}
}

// Has reports whether a session is filed at address a.
func (s *State) Has(a mcast.Addr) bool { return uint32(a) < s.used.size && s.used.has(a) }
