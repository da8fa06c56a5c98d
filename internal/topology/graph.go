// Package topology models multicast router topologies: weighted graphs with
// per-link DVMRP metrics and TTL scope thresholds, source-based shortest
// path trees, shared (core-based) trees, and TTL-scoped reachability.
//
// Two generators are provided, matching the two topologies the paper
// evaluates on: a synthetic Mbone (standing in for the 1998 mcollect map;
// see DESIGN.md §2) and the Doar-style grid generator of §3 used for the
// request–response simulations.
package topology

import (
	"fmt"
	"math"
)

// NodeID identifies a multicast router in a Graph.
type NodeID int32

// InfMetric is the DVMRP infinite routing metric: paths at or beyond this
// cost are unreachable (§2.4.1 notes infinity is 32).
const InfMetric = 32

// Edge is one directed half of a link.
type Edge struct {
	To        NodeID
	Metric    int32   // DVMRP routing metric (>= 1)
	Threshold uint8   // TTL threshold configured on the link (>= 1)
	Delay     float64 // propagation delay in milliseconds
}

// Node carries the labelling the Mbone generator assigns; generated grid
// topologies leave most fields zero. X, Y are layout coordinates (grid
// units for Doar graphs; synthetic map coordinates for the Mbone).
type Node struct {
	Name      string
	Continent string
	Country   string
	Site      string
	X, Y      float64
}

// Graph is an undirected multigraph of multicast routers stored as
// directed adjacency lists (each undirected link appears once per
// direction, with equal metric, threshold and delay).
type Graph struct {
	Nodes []Node
	adj   [][]Edge
	edges int
}

// NewGraph returns an empty graph with n unlabelled nodes.
func NewGraph(n int) *Graph {
	return &Graph{
		Nodes: make([]Node, n),
		adj:   make([][]Edge, n),
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumLinks returns the undirected link count.
func (g *Graph) NumLinks() int { return g.edges }

// AddLink installs an undirected link between a and b. metric must be
// >= 1 and threshold >= 1 (1 means "no scope boundary": every multicast
// packet that still has TTL after the hop crosses it).
func (g *Graph) AddLink(a, b NodeID, metric int32, threshold uint8, delay float64) error {
	if a == b {
		return fmt.Errorf("topology: self-link at node %d", a)
	}
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: link %d-%d outside graph of %d nodes", a, b, len(g.Nodes))
	}
	if metric < 1 {
		return fmt.Errorf("topology: link %d-%d metric %d < 1", a, b, metric)
	}
	if threshold < 1 {
		return fmt.Errorf("topology: link %d-%d threshold 0", a, b)
	}
	if delay < 0 || math.IsNaN(delay) {
		return fmt.Errorf("topology: link %d-%d invalid delay %v", a, b, delay)
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Metric: metric, Threshold: threshold, Delay: delay})
	g.adj[b] = append(g.adj[b], Edge{To: a, Metric: metric, Threshold: threshold, Delay: delay})
	g.edges++
	return nil
}

// MustAddLink is AddLink for generator-internal use where inputs are known
// valid; it panics on error.
func (g *Graph) MustAddLink(a, b NodeID, metric int32, threshold uint8, delay float64) {
	if err := g.AddLink(a, b, metric, threshold, delay); err != nil {
		panic(err)
	}
}

// Neighbors returns the adjacency list of n. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(n NodeID) []Edge {
	return g.adj[n]
}

// EdgeBetween returns the edge from a toward b and whether one exists.
// If parallel links exist it returns the first.
func (g *Graph) EdgeBetween(a, b NodeID) (Edge, bool) {
	for _, e := range g.adj[a] {
		if e.To == b {
			return e, true
		}
	}
	return Edge{}, false
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.Nodes) }

// Connected reports whether every node is reachable from node 0
// (false for an empty graph).
func (g *Graph) Connected() bool {
	if len(g.Nodes) == 0 {
		return false
	}
	seen := make([]bool, len(g.Nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(g.Nodes)
}

// LargestComponent returns the node set of the largest connected component.
func (g *Graph) LargestComponent() []NodeID {
	seen := make([]bool, len(g.Nodes))
	var best []NodeID
	for start := range g.Nodes {
		if seen[start] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{NodeID(start)}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}
