package allocator

import "sessiondir/internal/mcast"

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// Catalog returns one instance of every catalog algorithm over a space of
// the given size.
func Catalog(size uint32) []Allocator {
	all := make([]Allocator, len(catalog))
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
