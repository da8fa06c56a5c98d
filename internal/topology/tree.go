package topology

import (
	"math"
	"sync"
)

// Tree is a routing tree rooted at Root: either a source-based shortest
// path tree (DVMRP/PIM dense-mode style) or a shared tree rooted at a core
// (CBT/PIM sparse-mode style). It stores, for each node, its parent, its
// hop depth, and its cumulative metric and delay from the root.
type Tree struct {
	Root     NodeID
	parent   []NodeID // -1 for root and unreached nodes
	depth    []int32  // hops from root; -1 if unreached
	metric   []int32  // cumulative DVMRP metric from root
	delay    []float64
	children [][]NodeID
	// binary-lifting ancestor table, built lazily by ensureLCA. Guarded by
	// lcaOnce so trees shared through a concurrent ReachCache stay safe.
	up      [][]NodeID
	lcaOnce sync.Once
}

type pqItem struct {
	node   NodeID
	metric int64
	delay  float64
}

// pq is a binary min-heap of pqItems under less. push and pop are
// container/heap's up and down on the typed slice, so an item is never
// boxed into an interface. less is a total order (its last tie-break is
// the node id), so the pop sequence — and with it every tree — is the one
// any correct heap yields.
type pq []pqItem

func (a pqItem) less(b pqItem) bool {
	if a.metric != b.metric {
		return a.metric < b.metric
	}
	// Tie-break on delay then node id for determinism across runs.
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	return a.node < b.node
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].less(h[j]) {
			j = r
		}
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// NewSPTree computes the shortest path tree rooted at src using DVMRP
// metrics (ties broken deterministically). Nodes whose best path metric
// reaches InfMetric are treated as unreachable, matching DVMRP's infinity.
func NewSPTree(g *Graph, src NodeID) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Root:   src,
		parent: make([]NodeID, n),
		depth:  make([]int32, n),
		metric: make([]int32, n),
		delay:  make([]float64, n),
	}
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
		t.parent[i] = -1
		t.depth[i] = -1
	}
	dist[src] = 0
	t.depth[src] = 0
	q := pq{{node: src}}
	done := make([]bool, n)
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.Neighbors(u) {
			nd := dist[u] + int64(e.Metric)
			if nd >= InfMetric {
				continue // DVMRP metric infinity
			}
			if nd < dist[e.To] && !done[e.To] {
				dist[e.To] = nd
				t.parent[e.To] = u
				t.depth[e.To] = t.depth[u] + 1
				t.metric[e.To] = int32(nd)
				t.delay[e.To] = t.delay[u] + e.Delay
				q.push(pqItem{node: e.To, metric: nd, delay: t.delay[e.To]})
			}
		}
	}
	t.buildChildren()
	return t
}

// NewSharedTree computes a shared tree rooted at the given core node.
// Structurally it is the core's shortest path tree, which matches how CBT
// and sparse-mode PIM build their trees toward a rendezvous point.
func NewSharedTree(g *Graph, core NodeID) *Tree {
	return NewSPTree(g, core)
}

func (t *Tree) buildChildren() {
	t.children = make([][]NodeID, len(t.parent))
	for v, p := range t.parent {
		if p >= 0 {
			t.children[p] = append(t.children[p], NodeID(v))
		}
	}
}

// Reached reports whether v is attached to the tree.
func (t *Tree) Reached(v NodeID) bool { return v == t.Root || t.parent[v] >= 0 }

// Parent returns v's parent, or -1 for the root / unreached nodes.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }

// Depth returns v's hop count from the root (-1 if unreached).
func (t *Tree) Depth(v NodeID) int32 { return t.depth[v] }

// DelayFromRoot returns the cumulative link delay from the root to v in
// milliseconds (meaningless for unreached nodes).
func (t *Tree) DelayFromRoot(v NodeID) float64 { return t.delay[v] }

// MetricFromRoot returns the cumulative DVMRP metric from the root to v.
func (t *Tree) MetricFromRoot(v NodeID) int32 { return t.metric[v] }

// Children returns v's children. The slice is owned by the tree.
func (t *Tree) Children(v NodeID) []NodeID { return t.children[v] }

// ensureLCA builds the binary lifting table on first use (concurrency-safe).
func (t *Tree) ensureLCA() {
	t.lcaOnce.Do(t.buildLCA)
}

func (t *Tree) buildLCA() {
	n := len(t.parent)
	levels := 1
	for 1<<levels < n {
		levels++
	}
	up := make([][]NodeID, levels+1)
	up[0] = make([]NodeID, n)
	copy(up[0], t.parent)
	up[0][t.Root] = -1
	for k := 1; k <= levels; k++ {
		up[k] = make([]NodeID, n)
		for v := 0; v < n; v++ {
			mid := up[k-1][v]
			if mid < 0 {
				up[k][v] = -1
			} else {
				up[k][v] = up[k-1][mid]
			}
		}
	}
	t.up = up
}

// LCA returns the lowest common ancestor of u and v, which must both be
// reached by the tree.
func (t *Tree) LCA(u, v NodeID) NodeID {
	t.ensureLCA()
	du, dv := t.depth[u], t.depth[v]
	if du < dv {
		u, v = v, u
		du, dv = dv, du
	}
	diff := du - dv
	for k := 0; diff != 0; k++ {
		if diff&1 != 0 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u = t.up[k][u]
			v = t.up[k][v]
		}
	}
	return t.parent[u]
}

// TreeDelay returns the delay of the tree path between u and v in
// milliseconds (the traffic path when both are on a shared tree).
func (t *Tree) TreeDelay(u, v NodeID) float64 {
	l := t.LCA(u, v)
	return t.delay[u] + t.delay[v] - 2*t.delay[l]
}

// TreeHops returns the hop count of the tree path between u and v.
func (t *Tree) TreeHops(u, v NodeID) int32 {
	l := t.LCA(u, v)
	return t.depth[u] + t.depth[v] - 2*t.depth[l]
}
