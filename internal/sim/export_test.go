package sim

import "sessiondir/internal/topology"

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// NewWorld returns an empty world over g with its own private scope cache.
func NewWorld(g *topology.Graph) *World {
	return NewWorldWithCache(g, nil)
}
