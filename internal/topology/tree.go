package topology

import (
	"slices"
	"sync"
)

// Tree is a routing tree rooted at Root: either a source-based shortest
// path tree (DVMRP/PIM dense-mode style) or a shared tree rooted at a core
// (CBT/PIM sparse-mode style). It stores, for each node, its parent, its
// hop depth, and its cumulative metric and delay from the root.
type Tree struct {
	Root   NodeID
	parent []NodeID // -1 for root and unreached nodes
	depth  []int32  // hops from root; -1 if unreached
	metric []int32  // cumulative DVMRP metric from root
	delay  []float64
	// v's children are kids[first[v]:first[v+1]], in ascending node order.
	first []int32
	kids  []NodeID
	// binary-lifting ancestor table, built lazily by ensureLCA. Guarded by
	// lcaOnce so a tree shared by goroutines stays safe.
	up      [][]NodeID
	lcaOnce sync.Once
}

// settled is a node of the bucket being settled with the delay that orders
// it there: sorting bare node ids by t.delay, whose reads leave the bucket,
// made paper-scale fig15 (51 200-node graphs) about 15 % slower.
type settled struct {
	delay float64
	node  NodeID
}

// NewSPTree computes the shortest path tree rooted at src using DVMRP
// metrics (ties broken deterministically). Nodes whose best path metric
// reaches InfMetric are treated as unreachable, matching DVMRP's infinity.
//
// It is Dijkstra over one bucket per metric below InfMetric. Every link
// costs at least 1 (AddLink), so bucket m is complete once the buckets
// below it are settled, and settling it in (delay, node) order pops the
// (metric, delay, node) order of a heap (DESIGN.md §8). Waiting nodes sit
// on intrusive lists, so a tree is a fixed number of allocations.
func NewSPTree(g *Graph, src NodeID) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Root:   src,
		parent: make([]NodeID, n),
		depth:  make([]int32, n),
		metric: make([]int32, n),
		delay:  make([]float64, n),
		first:  make([]int32, n+1),
	}
	for i := range t.parent {
		t.parent[i], t.depth[i], t.metric[i] = -1, -1, InfMetric
	}
	// next and prev thread each bucket's waiting nodes; -1 ends a list.
	link := make([]int32, 2*n)
	next, prev := link[:n], link[n:]
	var head [InfMetric]int32
	for i := range head {
		head[i] = -1
	}
	t.depth[src], t.metric[src] = 0, 0
	head[0], next[src], prev[src] = int32(src), -1, -1
	bucket := make([]settled, 0, n)
	for m := int32(0); m < InfMetric; m++ {
		bucket = bucket[:0]
		for v := head[m]; v >= 0; v = next[v] {
			bucket = append(bucket, settled{t.delay[v], NodeID(v)})
		}
		slices.SortFunc(bucket, func(a, b settled) int {
			switch {
			case a.delay < b.delay:
				return -1
			case a.delay > b.delay:
				return 1
			}
			return int(a.node - b.node)
		})
		for _, s := range bucket {
			u := s.node
			for _, e := range g.Neighbors(u) {
				if e.Metric >= InfMetric-m {
					continue // DVMRP metric infinity
				}
				v, nm := e.To, m+e.Metric
				if nm >= t.metric[v] {
					continue
				}
				if old := t.metric[v]; old < InfMetric { // leave bucket old
					if p := prev[v]; p >= 0 {
						next[p] = next[v]
					} else {
						head[old] = next[v]
					}
					if nx := next[v]; nx >= 0 {
						prev[nx] = prev[v]
					}
				}
				next[v], prev[v] = head[nm], -1
				if h := head[nm]; h >= 0 {
					prev[h] = int32(v)
				}
				head[nm] = int32(v)
				t.parent[v], t.depth[v], t.metric[v] = u, t.depth[u]+1, nm
				t.delay[v] = t.delay[u] + e.Delay
			}
		}
	}
	// Children, counted then placed in ascending node order; an unreached
	// node's metric goes back to 0.
	for v, p := range t.parent {
		if p >= 0 {
			t.first[p+1]++
		} else if t.depth[v] < 0 {
			t.metric[v] = 0
		}
	}
	for v := 1; v <= n; v++ {
		t.first[v] += t.first[v-1]
	}
	t.kids = make([]NodeID, t.first[n])
	at := next
	copy(at, t.first[:n])
	for v, p := range t.parent {
		if p >= 0 {
			t.kids[at[p]] = NodeID(v)
			at[p]++
		}
	}
	return t
}

// NewSharedTree computes a shared tree rooted at the given core node.
// Structurally it is the core's shortest path tree, which matches how CBT
// and sparse-mode PIM build their trees toward a rendezvous point.
func NewSharedTree(g *Graph, core NodeID) *Tree {
	return NewSPTree(g, core)
}

// Depth returns v's hop count from the root (-1 if unreached).
func (t *Tree) Depth(v NodeID) int32 { return t.depth[v] }

// DelayFromRoot returns the cumulative link delay from the root to v in
// milliseconds (meaningless for unreached nodes).
func (t *Tree) DelayFromRoot(v NodeID) float64 { return t.delay[v] }

// Children returns v's children. The slice is owned by the tree.
func (t *Tree) Children(v NodeID) []NodeID {
	lo, hi := t.first[v], t.first[v+1]
	return t.kids[lo:hi:hi]
}

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
