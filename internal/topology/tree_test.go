package topology

import (
	"container/heap"
	"math"
	"reflect"
	"testing"

	"sessiondir/internal/stats"
)

// refPQ is the container/heap priority queue NewSPTree used before its
// typed heap, kept as the reference the trees are compared against.
type refPQ []pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q refPQ) Less(i, j int) bool { return q[i].less(q[j]) }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSPTree is NewSPTree's Dijkstra over container/heap.
func refSPTree(g *Graph, src NodeID) *Tree {
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
		u := heap.Pop(&q).(pqItem).node
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
				heap.Push(&q, pqItem{node: e.To, metric: nd, delay: t.delay[e.To]})
			}
		}
	}
	t.buildChildren()
	return t
}

// TestSPTreeMatchesContainerHeap: the typed heap yields, from every root
// of an Mbone map and of a 12×12 lattice (whose equal metrics and delays
// leave the node-id tie-break to decide), the tree container/heap did —
// parents, depths, metrics, delays and child lists alike.
func TestSPTreeMatchesContainerHeap(t *testing.T) {
	mbone, err := GenerateMbone(MboneConfig{Nodes: 300}, stats.NewRNG(1998))
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
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"mbone", mbone}, {"lattice", lattice}} {
		name, g := c.name, c.g
		for src := 0; src < g.NumNodes(); src++ {
			got, want := NewSPTree(g, NodeID(src)), refSPTree(g, NodeID(src))
			if !reflect.DeepEqual(got.parent, want.parent) || !reflect.DeepEqual(got.depth, want.depth) ||
				!reflect.DeepEqual(got.metric, want.metric) || !reflect.DeepEqual(got.delay, want.delay) ||
				!reflect.DeepEqual(got.children, want.children) {
				t.Fatalf("%s root %d: the typed heap's tree differs from container/heap's", name, src)
			}
		}
	}
}

// TestSPTreePushAllocatesNothing: a push moves an item within the heap's
// slice, so a tree allocates less than once per node (a boxed push alone
// would allocate once per node reached).
func TestSPTreePushAllocatesNothing(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 1864}, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { NewSPTree(g, 0) }); allocs >= float64(g.NumNodes()) {
		t.Fatalf("NewSPTree over %d nodes allocates %v times", g.NumNodes(), allocs)
	}
}
