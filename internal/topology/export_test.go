package topology

import "sessiondir/internal/mcast"

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// DefaultMboneConfig matches the paper's 1864-router connected map.
func DefaultMboneConfig() MboneConfig { return MboneConfig{Nodes: 1864} }

// NodesInContinent returns the ids of all routers labelled with continent.
func NodesInContinent(g *Graph, continent string) []NodeID {
	var out []NodeID
	for i, n := range g.Nodes {
		if n.Continent == continent {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Visible reports whether an observer node sees announcements for a session
// originated at src with the given scope TTL: announcements are multicast
// with the same scope as the session they describe (§1).
func (c *ReachCache) Visible(observer, src NodeID, ttl mcast.TTL) bool {
	return c.Reach(src, ttl).Contains(observer)
}

// MetricFromRoot returns the cumulative DVMRP metric from the root to v.
func (t *Tree) MetricFromRoot(v NodeID) int32 { return t.metric[v] }

// Contains reports zone membership.
func (z *AdminZone) Contains(n NodeID) bool { return z.members.Contains(n) }

// Reached reports whether v is attached to the tree.
func (t *Tree) Reached(v NodeID) bool { return v == t.Root || t.parent[v] >= 0 }

// Parent returns v's parent, or -1 for the root / unreached nodes.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }
