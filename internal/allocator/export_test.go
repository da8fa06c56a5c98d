package allocator

import (
	"maps"
	"slices"

	"sessiondir/internal/mcast"
)

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// Catalog returns one instance of every catalog algorithm over a space of
// the given size.
func Catalog(size uint32) []StateAllocator {
	all := make([]StateAllocator, len(catalog))
	for i, c := range catalog {
		all[i] = c.make(size, c.name)
	}
	return all
}

// PartitionMap exposes the TTL-class mapping (for introspection/tests).
func (a *Adaptive) PartitionMap() *PartitionMap { return a.pm }

// HighTTL returns the highest TTL of class c.
func (pm *PartitionMap) HighTTL(c int) mcast.TTL {
	if c+1 < len(pm.lows) {
		return pm.lows[c+1] - 1
	}
	return mcast.MaxTTL
}

// foldState is a view filed into a new State one Add at a time.
func foldState(size uint32, view []SessionInfo) *State {
	s := NewState(size)
	for _, v := range view {
		s.Add(v.Addr, v.TTL)
	}
	return s
}

// equal reports whether s and o hold the same members over the same space.
func (s *State) equal(o *State) bool {
	return s.used.size == o.used.size && slices.Equal(s.used.words, o.used.words) &&
		maps.Equal(s.extra, o.extra) && s.ttls == o.ttls && s.present == o.present
}
