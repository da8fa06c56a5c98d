package topology

import (
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

func TestGridGeneratorBasics(t *testing.T) {
	rng := stats.NewRNG(1)
	g, err := GenerateGrid(500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("grid graph must be connected")
	}
	// Tree links = n-1; redundant links add roughly n/20 - n/30.
	minLinks, maxLinks := 499, 499+500/20
	if l := g.NumLinks(); l < minLinks || l > maxLinks {
		t.Fatalf("links = %d, want in [%d,%d]", l, minLinks, maxLinks)
	}
	for i := 0; i < g.NumNodes(); i++ {
		for _, e := range g.Neighbors(NodeID(i)) {
			if e.Delay <= 0 {
				t.Fatalf("non-positive delay on link %d-%d", i, e.To)
			}
			if e.Threshold != 1 {
				t.Fatalf("grid link has threshold %d", e.Threshold)
			}
		}
	}
}

func TestGridGeneratorDeterministic(t *testing.T) {
	g1, err := GenerateGrid(200, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GenerateGrid(200, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumLinks() != g2.NumLinks() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range g1.Nodes {
		if g1.Nodes[i].X != g2.Nodes[i].X || g1.Nodes[i].Y != g2.Nodes[i].Y {
			t.Fatalf("node %d coordinates differ", i)
		}
	}
}

func TestGridGeneratorRejectsTiny(t *testing.T) {
	if _, err := GenerateGrid(1, stats.NewRNG(1)); err == nil {
		t.Fatal("expected error")
	}
}

func TestGridNearestNeighborLinksAreLocal(t *testing.T) {
	// Later nodes should attach over short links (clustering); the mean
	// link distance of the last quarter must be well below that of the
	// first few backbone links.
	rng := stats.NewRNG(5)
	g, err := GenerateGrid(1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	linkLen := func(i int) float64 {
		e := g.Neighbors(NodeID(i))[0] // first link is the attach link
		return dist(g.Nodes[i], g.Nodes[e.To])
	}
	var early, late stats.Summary
	for i := 1; i <= 20; i++ {
		early.Add(linkLen(i))
	}
	for i := 750; i < 1000; i++ {
		late.Add(linkLen(i))
	}
	if late.Mean() >= early.Mean() {
		t.Fatalf("late attach links (%.2f) not shorter than early backbone links (%.2f)",
			late.Mean(), early.Mean())
	}
}

func mboneForTest(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateMbone(DefaultMboneConfig(), stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMboneSizeAndConnectivity(t *testing.T) {
	g := mboneForTest(t)
	if n := g.NumNodes(); n < 1600 || n > 2100 {
		t.Fatalf("node count %d not near the paper's 1864", n)
	}
	if !g.Connected() {
		t.Fatal("Mbone must be connected")
	}
}

func TestMboneDeterministic(t *testing.T) {
	g1, _ := GenerateMbone(MboneConfig{Nodes: 400}, stats.NewRNG(3))
	g2, _ := GenerateMbone(MboneConfig{Nodes: 400}, stats.NewRNG(3))
	if g1.NumNodes() != g2.NumNodes() || g1.NumLinks() != g2.NumLinks() {
		t.Fatal("same seed produced different Mbones")
	}
}

func TestMboneCountryLabels(t *testing.T) {
	g := mboneForTest(t)
	for _, c := range []string{"US", "UK", "Germany", "Scandinavia", "Japan"} {
		if len(NodesInCountry(g, c)) == 0 {
			t.Fatalf("no nodes labelled %s", c)
		}
	}
	if len(NodesInContinent(g, "Europe")) == 0 {
		t.Fatal("no European nodes")
	}
	// Every node is labelled.
	for i, n := range g.Nodes {
		if n.Country == "" || n.Continent == "" {
			t.Fatalf("node %d unlabelled: %+v", i, n)
		}
	}
}

// TestMboneScopeNesting verifies the paper's §1–2 scope semantics on the
// generated map: TTL-47 traffic from a UK host stays inside the UK, TTL-63
// traffic stays inside Europe, TTL-127 traffic crosses continents.
func TestMboneScopeNesting(t *testing.T) {
	g := mboneForTest(t)
	cache := NewReachCache(g)
	ukSites := siteRouters(g, "UK")
	if len(ukSites) == 0 {
		t.Fatal("no UK site routers")
	}
	src := ukSites[0]

	r47 := cache.Reach(src, 47)
	for _, v := range r47.Members() {
		if g.Nodes[v].Country != "UK" {
			t.Fatalf("TTL47 from UK reached %s node %s", g.Nodes[v].Country, g.Nodes[v].Name)
		}
	}

	r63 := cache.Reach(src, 63)
	reachedOtherEU := false
	for _, v := range r63.Members() {
		if g.Nodes[v].Continent != "Europe" {
			t.Fatalf("TTL63 from UK reached %s node %s", g.Nodes[v].Continent, g.Nodes[v].Name)
		}
		if g.Nodes[v].Country != "UK" {
			reachedOtherEU = true
		}
	}
	if !reachedOtherEU {
		t.Fatal("TTL63 from UK should reach other European countries")
	}

	r127 := cache.Reach(src, 127)
	reachedUS := false
	for _, v := range r127.Members() {
		if g.Nodes[v].Country == "US" {
			reachedUS = true
			break
		}
	}
	if !reachedUS {
		t.Fatal("TTL127 from UK should reach the US")
	}
	// Nesting: each scope is a superset of the smaller one.
	if !(r47.Len() < r63.Len() && r63.Len() < r127.Len()) {
		t.Fatalf("scopes not nested: %d, %d, %d", r47.Len(), r63.Len(), r127.Len())
	}
}

// TestMboneFigure3Asymmetry reproduces the paper's Figure-3 situation: a
// session directory in Scandinavia cannot see a UK-only TTL-47 session, yet
// a Europe-wide TTL-63 session allocated in Scandinavia reaches the UK and
// can clash with it.
func TestMboneFigure3Asymmetry(t *testing.T) {
	g := mboneForTest(t)
	cache := NewReachCache(g)
	uk := siteRouters(g, "UK")
	scand := siteRouters(g, "Scandinavia")
	if len(uk) == 0 || len(scand) == 0 {
		t.Fatal("missing countries")
	}
	ukSrc, scandObs := uk[0], scand[0]

	// Scandinavia does not hear the UK's TTL-47 announcements...
	if cache.Visible(scandObs, ukSrc, 47) {
		t.Fatal("Scandinavia should not see UK TTL-47 sessions")
	}
	// ...but a Scandinavian TTL-63 session's data reaches the UK.
	if !cache.Reach(scandObs, 63).Contains(ukSrc) {
		t.Fatal("Scandinavian TTL-63 sessions should reach the UK")
	}
	// Hence the two scopes intersect although the allocator at scandObs
	// could not see the UK session: the clash the paper describes.
	if !cache.Reach(scandObs, 63).Intersects(cache.Reach(ukSrc, 47)) {
		t.Fatal("expected intersecting scopes")
	}
}

// TestMboneUSTTL47BehavesLike63 checks "In the US, no TTL 48 boundaries
// exist, and so no TTL 47 sessions are used": TTL-47 and TTL-63 traffic
// from a US source reach identical node sets.
func TestMboneUSTTL47BehavesLike63(t *testing.T) {
	g := mboneForTest(t)
	cache := NewReachCache(g)
	us := siteRouters(g, "US")
	if len(us) == 0 {
		t.Fatal("no US routers")
	}
	for _, src := range us[:3] {
		r47 := cache.Reach(src, 47)
		r63 := cache.Reach(src, 63)
		if r47.Len() != r63.Len() {
			t.Fatalf("US TTL47 reach (%d) != TTL63 reach (%d)", r47.Len(), r63.Len())
		}
	}
}

// TestMboneHopDistributionShape verifies the Figure-10 shape constraints:
// hop counts roughly proportional to TTL scope, maxima below the DVMRP
// infinity of 32, site scopes a few hops, intercontinental around 10.
func TestMboneHopDistributionShape(t *testing.T) {
	g := mboneForTest(t)
	// Sample sources for speed; Figure 10 uses all of them.
	rng := stats.NewRNG(7)
	var sources []NodeID
	for i := 0; i < 120; i++ {
		sources = append(sources, NodeID(rng.IntN(g.NumNodes())))
	}
	rows, _ := HopStatsForTTLs(g, []mcast.TTL{15, 47, 63, 127}, sources)
	byTTL := map[mcast.TTL]HopStats{}
	for _, r := range rows {
		byTTL[r.TTL] = r
	}
	if m := byTTL[15].MostFrequentHop; m < 0 || m > 6 {
		t.Fatalf("TTL15 mode hop %d, want small", m)
	}
	if m := byTTL[15].MaxHop; m > 14 {
		t.Fatalf("TTL15 max hop %d too large", m)
	}
	if m := byTTL[127].MostFrequentHop; m < 5 || m > 16 {
		t.Fatalf("TTL127 mode hop %d, want ~10", m)
	}
	if m := byTTL[127].MaxHop; m >= 32 {
		t.Fatalf("TTL127 max hop %d reaches DVMRP infinity", m)
	}
	// Monotone: wider scopes have >= mean hops.
	if !(byTTL[15].MeanHop <= byTTL[63].MeanHop && byTTL[63].MeanHop <= byTTL[127].MeanHop) {
		t.Fatalf("hop means not monotone: %+v", rows)
	}
}

// siteRouters returns routers in a country that belong to sites (leaf
// networks) rather than backbone/hub infrastructure.
func siteRouters(g *Graph, country string) []NodeID {
	var out []NodeID
	for i, n := range g.Nodes {
		if n.Country == country && n.Site != "" {
			out = append(out, NodeID(i))
		}
	}
	return out
}

func TestHopHistogramLine(t *testing.T) {
	g := NewGraph(4)
	g.MustAddLink(0, 1, 1, 1, 1)
	g.MustAddLink(1, 2, 1, 1, 1)
	g.MustAddLink(2, 3, 1, 1, 1)
	hs, _ := HopHistograms(g, []mcast.TTL{255}, []NodeID{0})
	// From node 0: hops 0,1,2,3 each once.
	for hop := 0; hop <= 3; hop++ {
		if hs[0].Count(hop) != 1 {
			t.Fatalf("hop %d count = %d; hist %s", hop, hs[0].Count(hop), hs[0].String())
		}
	}
	if _, d := HopHistograms(g, nil, nil); d != 3 {
		t.Fatalf("diameter = %d", d)
	}
}
