package topology

import (
	"fmt"
	"math"

	"sessiondir/internal/stats"
)

// GridConfig parameterises the Doar-style topology generator of §3.
type GridConfig struct {
	// Nodes is the number of routers to place.
	Nodes int
	// GridSide is the side length of the square coordinate grid; 0 picks
	// a side proportional to sqrt(Nodes) so density is scale-free.
	GridSide float64
	// RedundantLinks adds the paper's extra random links to nodes
	// n/30..n/20, providing the redundant backbone paths that
	// differentiate shortest-path from shared trees.
	RedundantLinks bool
	// DelayPerUnit converts grid distance to link delay in milliseconds.
	// 0 picks a default such that the network's delay diameter is a few
	// hundred milliseconds, matching the paper's R = 200 ms framing.
	DelayPerUnit float64
}

// GenerateGrid builds a topology per the paper's §3 recipe:
//
//   - the "space" is a square grid and nodes are allocated coordinates on it;
//   - each new node is connected to its nearest neighbour already placed, so
//     the earliest nodes form long "backbone" links and later nodes cluster
//     (a tree similar to CBT / sparse-mode PIM shared trees);
//   - optionally, nodes with index in [n/30, n/20) are additionally connected
//     to a random pre-existing node, providing redundant backbone links that
//     source-based shortest path trees can exploit.
//
// Link delays are proportional to grid distance (§3: "link delays were
// primarily based on distance between the nodes forming the link"); random
// per-packet queueing jitter is a simulation-time concern, not a property of
// the topology. All links carry threshold 1 (no scope boundaries: the
// request–response experiments do not use scoping) and metric 1.
func GenerateGrid(cfg GridConfig, rng *stats.RNG) (*Graph, error) {
	n := cfg.Nodes
	if n < 2 {
		return nil, fmt.Errorf("topology: grid generator needs >= 2 nodes, got %d", n)
	}
	side := cfg.GridSide
	if side <= 0 {
		side = math.Sqrt(float64(n)) * 10
	}
	delayPerUnit := cfg.DelayPerUnit
	if delayPerUnit <= 0 {
		// Normalise so that the expected corner-to-corner distance is
		// roughly 100 ms one-way, giving RTTs around the paper's 200 ms.
		delayPerUnit = 100 / (side * math.Sqrt2)
	}

	g := NewGraph(n)
	idx := newNNIndex(side, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * side
		y := rng.Float64() * side
		g.Nodes[i] = Node{Name: fmt.Sprintf("g%d", i), X: x, Y: y}
		if i > 0 {
			nb := idx.nearest(x, y)
			d := dist(g.Nodes[i], g.Nodes[nb])
			// Coincident points yield zero distance; keep delays positive.
			delay := math.Max(d*delayPerUnit, 1e-3)
			g.MustAddLink(NodeID(i), nb, 1, 1, delay)
		}
		idx.insert(x, y, NodeID(i))
	}
	if cfg.RedundantLinks {
		lo, hi := n/30, n/20
		for i := lo; i < hi; i++ {
			// Connect to a random pre-existing node that is not already
			// a neighbour.
			for attempt := 0; attempt < 8; attempt++ {
				j := NodeID(rng.IntN(i))
				if j == NodeID(i) {
					continue
				}
				if _, dup := g.EdgeBetween(NodeID(i), j); dup {
					continue
				}
				d := dist(g.Nodes[i], g.Nodes[j])
				g.MustAddLink(NodeID(i), j, 1, 1, math.Max(d*delayPerUnit, 1e-3))
				break
			}
		}
	}
	return g, nil
}

func dist(a, b Node) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Hypot(dx, dy)
}

// nnIndex is a uniform-cell spatial index supporting nearest-neighbour
// queries in roughly O(1) for uniformly random points; it keeps the
// generator usable at the paper's 51200-node scale.
type nnIndex struct {
	cells    int
	cellSize float64
	buckets  [][]nnPoint
}

type nnPoint struct {
	x, y float64
	id   NodeID
}

func newNNIndex(side float64, expected int) *nnIndex {
	cells := int(math.Sqrt(float64(expected)))
	if cells < 1 {
		cells = 1
	}
	return &nnIndex{
		cells:    cells,
		cellSize: side / float64(cells),
		buckets:  make([][]nnPoint, cells*cells),
	}
}

func (ix *nnIndex) cellOf(x, y float64) (int, int) {
	cx := int(x / ix.cellSize)
	cy := int(y / ix.cellSize)
	if cx >= ix.cells {
		cx = ix.cells - 1
	}
	if cy >= ix.cells {
		cy = ix.cells - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cx, cy
}

func (ix *nnIndex) insert(x, y float64, id NodeID) {
	cx, cy := ix.cellOf(x, y)
	b := cy*ix.cells + cx
	ix.buckets[b] = append(ix.buckets[b], nnPoint{x, y, id})
}

// nearest returns the id of the closest inserted point to (x, y). It
// panics if the index is empty; the generator always inserts node 0 first.
func (ix *nnIndex) nearest(x, y float64) NodeID {
	cx, cy := ix.cellOf(x, y)
	best := NodeID(-1)
	bestD := math.MaxFloat64
	foundRing := -1
	for ring := 0; ring < 2*ix.cells; ring++ {
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				// Only the perimeter of the ring is new.
				if ring > 0 && abs(dx) != ring && abs(dy) != ring {
					continue
				}
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= ix.cells || ny >= ix.cells {
					continue
				}
				for _, p := range ix.buckets[ny*ix.cells+nx] {
					d := math.Hypot(p.x-x, p.y-y)
					if d < bestD || (d == bestD && best >= 0 && p.id < best) {
						bestD, best = d, p.id
					}
				}
			}
		}
		if best >= 0 && foundRing < 0 {
			foundRing = ring
		}
		// A hit in ring r guarantees the true nearest is within ring r+1
		// (one extra ring covers diagonal cell geometry).
		if foundRing >= 0 && ring > foundRing {
			break
		}
	}
	if best < 0 {
		panic("topology: nearest on empty index")
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
