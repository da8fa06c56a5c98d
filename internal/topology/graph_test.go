package topology

import (
	"testing"

	"sessiondir/internal/mcast"
)

// lineGraph builds 0-1-2-...-(n-1) with the given thresholds per link
// (thresholds[i] guards the link between i and i+1), metric 1, delay 1ms.
func lineGraph(t *testing.T, n int, thresholds []uint8) *Graph {
	t.Helper()
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		th := uint8(1)
		if thresholds != nil {
			th = thresholds[i]
		}
		if err := g.AddLink(NodeID(i), NodeID(i+1), 1, th, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddLink(0, 0, 1, 1, 1); err == nil {
		t.Fatal("self-link accepted")
	}
	if err := g.AddLink(0, 5, 1, 1, 1); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := g.AddLink(0, 1, 0, 1, 1); err == nil {
		t.Fatal("zero metric accepted")
	}
	if err := g.AddLink(0, 1, 1, 0, 1); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if err := g.AddLink(0, 1, 1, 1, -2); err == nil {
		t.Fatal("negative delay accepted")
	}
	if err := g.AddLink(0, 1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 1 {
		t.Fatalf("links = %d", g.NumLinks())
	}
	if e, ok := g.EdgeBetween(1, 0); !ok || e.To != 0 {
		t.Fatal("reverse edge missing")
	}
}

func TestConnected(t *testing.T) {
	g := lineGraph(t, 4, nil)
	if !g.Connected() {
		t.Fatal("line should be connected")
	}
	g2 := NewGraph(4)
	g2.MustAddLink(0, 1, 1, 1, 1)
	g2.MustAddLink(2, 3, 1, 1, 1)
	if g2.Connected() {
		t.Fatal("two components reported connected")
	}
	comp := g2.LargestComponent()
	if len(comp) != 2 {
		t.Fatalf("largest component size %d", len(comp))
	}
	if (&Graph{}).Connected() {
		t.Fatal("empty graph reported connected")
	}
}

func TestSPTreeLine(t *testing.T) {
	g := lineGraph(t, 5, nil)
	tr := NewSPTree(g, 0)
	for v := 1; v < 5; v++ {
		if tr.Parent(NodeID(v)) != NodeID(v-1) {
			t.Fatalf("parent of %d = %d", v, tr.Parent(NodeID(v)))
		}
		if tr.Depth(NodeID(v)) != int32(v) {
			t.Fatalf("depth of %d = %d", v, tr.Depth(NodeID(v)))
		}
		if tr.DelayFromRoot(NodeID(v)) != float64(v) {
			t.Fatalf("delay of %d = %v", v, tr.DelayFromRoot(NodeID(v)))
		}
	}
}

func TestSPTreePrefersLowMetric(t *testing.T) {
	// 0-1 metric 5; 0-2 metric 1, 2-1 metric 1: best path to 1 via 2.
	g := NewGraph(3)
	g.MustAddLink(0, 1, 5, 1, 1)
	g.MustAddLink(0, 2, 1, 1, 1)
	g.MustAddLink(2, 1, 1, 1, 1)
	tr := NewSPTree(g, 0)
	if tr.Parent(1) != 2 {
		t.Fatalf("parent of 1 = %d, want 2", tr.Parent(1))
	}
	if tr.MetricFromRoot(1) != 2 {
		t.Fatalf("metric = %d", tr.MetricFromRoot(1))
	}
}

func TestDVMRPInfinityUnreachable(t *testing.T) {
	// A path whose total metric reaches 32 is unreachable.
	g := NewGraph(3)
	g.MustAddLink(0, 1, 31, 1, 1)
	g.MustAddLink(1, 2, 1, 1, 1)
	tr := NewSPTree(g, 0)
	if !tr.Reached(1) {
		t.Fatal("metric-31 node should be reached")
	}
	if tr.Reached(2) {
		t.Fatal("metric-32 node should be DVMRP-unreachable")
	}
}

func TestLCAAndTreeDistance(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   / \    \
	//  3   4    5
	g := NewGraph(6)
	g.MustAddLink(0, 1, 1, 1, 10)
	g.MustAddLink(0, 2, 1, 1, 20)
	g.MustAddLink(1, 3, 1, 1, 1)
	g.MustAddLink(1, 4, 1, 1, 2)
	g.MustAddLink(2, 5, 1, 1, 3)
	tr := NewSPTree(g, 0)
	cases := []struct {
		u, v, lca NodeID
		delay     float64
		hops      int32
	}{
		{3, 4, 1, 3, 2},
		{3, 5, 0, 34, 4},
		{1, 4, 1, 2, 1},
		{0, 5, 0, 23, 2},
		{4, 4, 4, 0, 0},
	}
	for _, c := range cases {
		if got := tr.LCA(c.u, c.v); got != c.lca {
			t.Errorf("LCA(%d,%d) = %d want %d", c.u, c.v, got, c.lca)
		}
		if got := tr.TreeDelay(c.u, c.v); got != c.delay {
			t.Errorf("TreeDelay(%d,%d) = %v want %v", c.u, c.v, got, c.delay)
		}
		if got := tr.TreeHops(c.u, c.v); got != c.hops {
			t.Errorf("TreeHops(%d,%d) = %d want %d", c.u, c.v, got, c.hops)
		}
	}
}

func TestReachTTLDecrement(t *testing.T) {
	g := lineGraph(t, 5, nil)
	tr := NewSPTree(g, 0)
	// TTL 1: only the source LAN.
	r := Reach(g, tr, 1)
	if r.Len() != 1 || !r.Contains(0) {
		t.Fatalf("ttl1 reach = %v", r.Members())
	}
	// TTL 3 crosses two routers: nodes 0,1,2.
	r = Reach(g, tr, 3)
	if r.Len() != 3 || !r.Contains(2) || r.Contains(3) {
		t.Fatalf("ttl3 reach = %v", r.Members())
	}
	// TTL 0 reaches nothing.
	if Reach(g, tr, 0).Len() != 0 {
		t.Fatal("ttl0 should reach nothing")
	}
	// Huge TTL reaches everything.
	if Reach(g, tr, 255).Len() != 5 {
		t.Fatal("ttl255 should reach all")
	}
}

func TestReachThresholdBlocks(t *testing.T) {
	// 0 -[th1]- 1 -[th16]- 2 -[th1]- 3
	g := lineGraph(t, 4, []uint8{1, 16, 1})
	tr := NewSPTree(g, 0)
	// TTL 15: decremented to 14 at the threshold-16 link → blocked.
	r := Reach(g, tr, 15)
	if !r.Contains(1) || r.Contains(2) {
		t.Fatalf("ttl15 reach = %v", r.Members())
	}
	// TTL 17: at the 1→2 link (second hop) the decremented TTL is 15,
	// below threshold 16 → still blocked.
	r = Reach(g, tr, 17)
	if r.Contains(2) {
		t.Fatalf("ttl17 reach = %v", r.Members())
	}
	// TTL 18: decremented TTL at the boundary is 16 ≥ 16 → crosses, and
	// continues to node 3.
	r = Reach(g, tr, 18)
	if !r.Contains(3) {
		t.Fatalf("ttl18 reach = %v", r.Members())
	}
	// From node 1 the boundary is the first hop: TTL 17 suffices.
	tr1 := NewSPTree(g, 1)
	r = Reach(g, tr1, 17)
	if !r.Contains(2) {
		t.Fatalf("ttl17 from node1 should cross the threshold-16 link: %v", r.Members())
	}
}

func TestReachAsymmetryAcrossThreshold(t *testing.T) {
	// The Figure-9 situation: a threshold boundary not equidistant from A
	// and B. A -1- X -[th10]- B: A at distance 2 from B.
	g := NewGraph(3)
	g.MustAddLink(0, 1, 1, 1, 1)  // A - X
	g.MustAddLink(1, 2, 1, 10, 1) // X -[10]- B
	a, b := NodeID(0), NodeID(2)
	// A sends TTL 12: at the boundary (second hop) remaining is 10 ≥ 10 →
	// crosses to B.
	if !Reach(g, NewSPTree(g, a), 12).Contains(b) {
		t.Fatal("A's TTL-12 should reach B")
	}
	// Now make the boundary *asymmetric*: A farther from the boundary.
	g2 := NewGraph(4)
	g2.MustAddLink(0, 1, 1, 1, 1)  // A - Y
	g2.MustAddLink(1, 2, 1, 1, 1)  // Y - X
	g2.MustAddLink(2, 3, 1, 10, 1) // X -[10]- B
	a2, b2 := NodeID(0), NodeID(3)
	// B with TTL 11: crosses boundary (10 ≥ 10), then 9, 8 → reaches A.
	if !Reach(g2, NewSPTree(g2, b2), 11).Contains(a2) {
		t.Fatal("B's TTL-11 should reach A")
	}
	// A with TTL 11: at the boundary link remaining is 11-3 = 8 < 10 → no.
	if Reach(g2, NewSPTree(g2, a2), 11).Contains(b2) {
		t.Fatal("A's TTL-11 should NOT reach B: threshold asymmetry")
	}
}

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(64) || s.Contains(63) {
		t.Fatal("membership wrong")
	}
	members := s.Members()
	want := []NodeID{0, 64, 129}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("Members = %v", members)
		}
	}
	t2 := NewNodeSet(130)
	t2.Add(63)
	if s.Intersects(t2) {
		t.Fatal("disjoint sets intersect")
	}
	t2.Add(64)
	if !s.Intersects(t2) {
		t.Fatal("overlapping sets don't intersect")
	}
}

func TestReachCacheConsistency(t *testing.T) {
	g := lineGraph(t, 6, []uint8{1, 16, 1, 1, 1})
	c := NewReachCache(g)
	r1 := c.Reach(0, mcast.TTL(15))
	r2 := c.Reach(0, mcast.TTL(15))
	if r1 != r2 {
		t.Fatal("cache miss on repeat lookup")
	}
	direct := Reach(g, NewSPTree(g, 0), 15)
	if r1.Len() != direct.Len() {
		t.Fatal("cached result differs from direct computation")
	}
	if !c.Visible(1, 0, 15) {
		t.Fatal("node1 should see node0's TTL15 announcements")
	}
	if c.Visible(3, 0, 15) {
		t.Fatal("node3 should not see node0's TTL15 announcements")
	}
}
