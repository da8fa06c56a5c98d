package topology

import (
	"container/heap"
	"math"
	"reflect"
	"slices"
	"testing"

	"sessiondir/internal/stats"
)

// refItem and refPQ are the binary heap NewSPTree used before its metric
// buckets, through container/heap, kept as the reference the trees are
// compared against: items pop in (metric, delay, node) order.
type refItem struct {
	node   NodeID
	metric int64
	delay  float64
}

type refPQ []refItem

func (q refPQ) Len() int      { return len(q) }
func (q refPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q refPQ) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.metric != b.metric {
		return a.metric < b.metric
	}
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	return a.node < b.node
}
func (q *refPQ) Push(x any) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSPTree is Dijkstra over container/heap. It returns the tree's
// parents, depths, metrics and delays, and each node's child list.
func refSPTree(g *Graph, src NodeID) (*Tree, [][]NodeID) {
	n := g.NumNodes()
	t := &Tree{Root: src, parent: make([]NodeID, n), depth: make([]int32, n), metric: make([]int32, n), delay: make([]float64, n)}
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
		t.parent[i], t.depth[i] = -1, -1
	}
	dist[src], t.depth[src] = 0, 0
	q := refPQ{{node: src}}
	done := make([]bool, n)
	for q.Len() > 0 {
		u := heap.Pop(&q).(refItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.Neighbors(u) {
			nd := dist[u] + int64(e.Metric)
			if nd < InfMetric && nd < dist[e.To] && !done[e.To] {
				dist[e.To] = nd
				t.parent[e.To], t.depth[e.To], t.metric[e.To] = u, t.depth[u]+1, int32(nd)
				t.delay[e.To] = t.delay[u] + e.Delay
				heap.Push(&q, refItem{node: e.To, metric: nd, delay: t.delay[e.To]})
			}
		}
	}
	children := make([][]NodeID, n)
	for v, p := range t.parent {
		if p >= 0 {
			children[p] = append(children[p], NodeID(v))
		}
	}
	return t, children
}

// TestSPTreeMatchesContainerHeap: the metric buckets yield the tree
// container/heap did — parents, depths, metrics, delays and child lists
// alike — from every root of an Mbone map, of a 12×12 lattice (whose equal
// metrics and delays leave the node-id tie-break to decide), of a random
// graph with metrics 1–8 (whose nodes change bucket as shorter paths turn
// up) and of a 40-node chain (whose far end lies beyond DVMRP infinity
// from most roots, so the last bucket fills and nodes go unreached), and
// from a sample of roots of a 2 000-node Doar grid (every link metric 1,
// so each bucket is ordered by delay and node id alone).
func TestSPTreeMatchesContainerHeap(t *testing.T) {
	mbone, err := GenerateMbone(MboneConfig{Nodes: 300}, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	doar, err := GenerateGrid(2000, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	const side = 12
	lattice := NewGraph(side * side)
	for v := 0; v < side*side; v++ {
		if v%side+1 < side {
			if err := lattice.AddLink(NodeID(v), NodeID(v+1), 1, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		if v+side < side*side {
			if err := lattice.AddLink(NodeID(v), NodeID(v+side), 1, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Metrics 1–8 and whole-millisecond delays: paths are shortened after
	// they are first found, moving nodes between buckets, and many delays
	// tie within a bucket.
	rng := stats.NewRNG(7)
	metrics := NewGraph(400)
	for v := 1; v < metrics.NumNodes(); v++ {
		ends := [][2]NodeID{{NodeID(v), NodeID(rng.IntN(v))}, {NodeID(rng.IntN(v + 1)), NodeID(rng.IntN(v + 1))}}
		for _, e := range ends {
			if e[0] != e[1] {
				metrics.MustAddLink(e[0], e[1], int32(1+rng.IntN(8)), 1, float64(rng.IntN(4)))
			}
		}
	}
	chain := NewGraph(40)
	for v := 0; v+1 < chain.NumNodes(); v++ {
		if err := chain.AddLink(NodeID(v), NodeID(v+1), 1, 1, float64(v%3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		g    *Graph
		step int
	}{{"mbone", mbone, 1}, {"lattice", lattice, 1}, {"metrics", metrics, 1}, {"chain", chain, 1}, {"doar", doar, 97}} {
		name, g := c.name, c.g
		for src := 0; src < g.NumNodes(); src += c.step {
			got := NewSPTree(g, NodeID(src))
			want, children := refSPTree(g, NodeID(src))
			if !reflect.DeepEqual(got.parent, want.parent) || !reflect.DeepEqual(got.depth, want.depth) ||
				!reflect.DeepEqual(got.metric, want.metric) || !reflect.DeepEqual(got.delay, want.delay) {
				t.Fatalf("%s root %d: the bucket queue's tree differs from container/heap's", name, src)
			}
			for v := range children {
				if !slices.Equal(got.Children(NodeID(v)), children[v]) {
					t.Fatalf("%s root %d: node %d's children %v, container/heap's %v",
						name, src, v, got.Children(NodeID(v)), children[v])
				}
			}
		}
	}
	if tr := NewSPTree(chain, 0); tr.Depth(InfMetric-1) != InfMetric-1 || tr.Reached(InfMetric) {
		t.Fatalf("chain from 0: node %d at depth %d, node %d reached %v; want 31 and false",
			InfMetric-1, tr.Depth(InfMetric-1), InfMetric, tr.Reached(InfMetric))
	}
}

// spTreeAllocs bounds NewSPTree's allocations at any graph size: the
// tree, its four per-node arrays and its flat child lists, and the bucket
// links and sort buffer it drops.
const spTreeAllocs = 9

// TestSPTreePushAllocatesNothing: a path found or shortened moves a node
// between bucket lists in preallocated arrays, so a tree costs the same
// fixed number of allocations over the 1864-router Mbone as over a
// 51 200-node Doar grid.
func TestSPTreePushAllocatesNothing(t *testing.T) {
	mbone, err := GenerateMbone(MboneConfig{Nodes: 1864}, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	doar, err := GenerateGrid(51200, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{mbone, doar} {
		if allocs := testing.AllocsPerRun(3, func() { NewSPTree(g, 0) }); allocs > spTreeAllocs {
			t.Fatalf("NewSPTree over %d nodes allocates %v times, want ≤ %d", g.NumNodes(), allocs, spTreeAllocs)
		}
	}
}
