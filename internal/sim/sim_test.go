package sim

import (
	"math"
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func testMbone(t testing.TB, nodes int) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: nodes}, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWorldVisibility(t *testing.T) {
	g := testMbone(t, 400)
	w := NewWorld(g)
	uk := topology.NodesInCountry(g, "UK")
	us := topology.NodesInCountry(g, "US")
	if len(uk) == 0 || len(us) == 0 {
		t.Fatal("countries missing")
	}
	// A UK national session is invisible in the US.
	w.Add(uk[0], 47, 5)
	if vis := w.VisibleAt(us[0]); len(vis) != 0 {
		t.Fatalf("US sees UK TTL-47 session: %v", vis)
	}
	if vis := w.VisibleAt(uk[0]); len(vis) != 1 {
		t.Fatalf("origin doesn't see its own session: %v", vis)
	}
	// A global session is visible everywhere.
	w.Add(us[0], 191, 6)
	if vis := w.VisibleAt(uk[len(uk)-1]); len(vis) < 1 {
		t.Fatal("UK doesn't see global session")
	}
}

func TestWorldClashSemantics(t *testing.T) {
	g := testMbone(t, 400)
	w := NewWorld(g)
	uk := topology.NodesInCountry(g, "UK")
	us := topology.NodesInCountry(g, "US")
	w.Add(uk[0], 47, 5)
	// Same address, disjoint scopes (UK-national vs US-national): no clash.
	if w.Clashes(us[0], 47, 5) {
		t.Fatal("disjoint scopes should not clash")
	}
	// Same address, overlapping scope (global session from the US): clash.
	if !w.Clashes(us[0], 191, 5) {
		t.Fatal("overlapping scopes with same address must clash")
	}
	// Different address: never a clash.
	if w.Clashes(us[0], 191, 6) {
		t.Fatal("different addresses should not clash")
	}
}

func TestWorldRemoveAt(t *testing.T) {
	g := testMbone(t, 400)
	w := NewWorld(g)
	w.Add(0, 191, 1)
	w.Add(1, 191, 2)
	w.Add(2, 191, 3)
	w.RemoveAt(0)
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	for i := range w.Len() {
		if w.At(i).Addr == 1 {
			t.Fatal("removed session still present")
		}
	}
	// Drain to empty: the swap-remove must hold up when the victim is the
	// last slot, and an empty world shows nothing and clashes with nothing.
	w.RemoveAt(1)
	w.RemoveAt(0)
	if w.Len() != 0 || len(w.VisibleAt(0)) != 0 || w.Clashes(0, 191, 2) {
		t.Fatalf("after drain: Len %d, visible %d, clash %v",
			w.Len(), len(w.VisibleAt(0)), w.Clashes(0, 191, 2))
	}
}

func TestFillUntilClashRandomNearBirthday(t *testing.T) {
	// With global-only sessions, algorithm R must reproduce the birthday
	// bound: mean allocations ≈ √(πn/2) ≈ 1.25·√n.
	g := testMbone(t, 400)
	dist := mcast.TTLDistribution{Name: "global", Values: []mcast.TTL{191}}
	const space = 1024
	rng := stats.NewRNG(5)
	var s stats.Summary
	for i := 0; i < 40; i++ {
		w := NewWorld(g)
		res := FillUntilClash(w, FillConfig{
			Alloc: allocator.NewRandom(space),
			Dist:  dist,
		}, rng.Split())
		s.Add(float64(res.Allocations))
	}
	want := 1.2533 * math.Sqrt(space)
	if s.Mean() < want*0.7 || s.Mean() > want*1.3 {
		t.Fatalf("R mean %v, birthday predicts ≈%v", s.Mean(), want)
	}
}

func TestFillUntilClashInformedGlobalNeverClashes(t *testing.T) {
	// With only global sessions everyone sees everything, so IR fills the
	// whole space without a clash and stops on exhaustion.
	g := testMbone(t, 400)
	dist := mcast.TTLDistribution{Name: "global", Values: []mcast.TTL{191}}
	w := NewWorld(g)
	res := FillUntilClash(w, FillConfig{
		Alloc: allocator.NewInformedRandom(128),
		Dist:  dist,
	}, stats.NewRNG(6))
	if !res.SpaceFull {
		t.Fatalf("IR clashed with perfect visibility after %d", res.Allocations)
	}
	if res.Allocations != 128 {
		t.Fatalf("allocations = %d, want full space", res.Allocations)
	}
}

func TestFillUntilClashScopedBreaksIR(t *testing.T) {
	// The paper's central observation: once sessions are scoped, IR loses
	// its advantage because the dangerous sessions are invisible.
	g := testMbone(t, 800)
	cache := topology.NewReachCache(g) // shared: building the scopes is most of a trial
	const space = 512
	rng := stats.NewRNG(7)
	mean := func(mk func() allocator.Allocator) float64 {
		var s stats.Summary
		for i := 0; i < 25; i++ {
			w := NewWorldWithCache(g, cache)
			res := FillUntilClash(w, FillConfig{Alloc: mk(), Dist: mcast.DS4()}, rng.Split())
			s.Add(float64(res.Allocations))
		}
		return s.Mean()
	}
	ir := mean(func() allocator.Allocator { return allocator.NewInformedRandom(space) })
	ipr7 := mean(func() allocator.Allocator { return allocator.NewStaticPartitioned(space, allocator.IPR7Separators()) })
	// Figure 5: IPR-7 beats IR decisively.
	if ipr7 < ir*1.5 {
		t.Fatalf("IPR7 (%v) should decisively beat IR (%v)", ipr7, ir)
	}
}

// TestIPR7BeatsIRSignificantly repeats the comparison as a Welch t-test:
// the Figure-5 separation must be statistical signal, not trial noise.
func TestIPR7BeatsIRSignificantly(t *testing.T) {
	g := testMbone(t, 800)
	cache := topology.NewReachCache(g) // shared: building the scopes is most of a trial
	const space = 512
	rng := stats.NewRNG(8)
	sample := func(mk func() allocator.Allocator) *stats.Summary {
		var s stats.Summary
		for i := 0; i < 20; i++ {
			w := NewWorldWithCache(g, cache)
			res := FillUntilClash(w, FillConfig{Alloc: mk(), Dist: mcast.DS4()}, rng.Split())
			s.Add(float64(res.Allocations))
		}
		return &s
	}
	ir := sample(func() allocator.Allocator { return allocator.NewInformedRandom(space) })
	ipr7 := sample(func() allocator.Allocator {
		return allocator.NewStaticPartitioned(space, allocator.IPR7Separators())
	})
	if !stats.SignificantlyGreater(ipr7, ir) {
		tt, df := stats.WelchT(ipr7, ir)
		t.Fatalf("IPR7 (%.1f) vs IR (%.1f) not significant: t=%.2f df=%.1f",
			ipr7.Mean(), ir.Mean(), tt, df)
	}
}

func TestRunFig5Shape(t *testing.T) {
	g := testMbone(t, 400)
	pts := RunFig5(Fig5Config{
		Graph:      g,
		SpaceSizes: []uint32{64, 256},
		Dists:      []mcast.TTLDistribution{mcast.DS4()},
		MakeAlloc:  func(size uint32) allocator.Allocator { return allocator.NewRandom(size) },
		Trials:     10,
		Seed:       1,
	})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// More addresses → more allocations before a clash.
	if pts[1].MeanAllocs <= pts[0].MeanAllocs {
		t.Fatalf("no growth with space: %v then %v", pts[0], pts[1])
	}
	for _, p := range pts {
		if p.Algorithm != "R" || p.Dist != "ds4" || p.Trials != 10 {
			t.Fatalf("metadata wrong: %+v", p)
		}
		if p.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestSteadyStateOnceBasics(t *testing.T) {
	g := testMbone(t, 400)
	cache := topology.NewReachCache(g)
	res := RunSteadyStateOnce(g, cache, SteadyStateConfig{
		Alloc:    allocator.NewStaticPartitioned(512, allocator.IPR7Separators()),
		Dist:     mcast.DS4(),
		Sessions: 30,
	}, stats.NewRNG(8))
	if res.Exhausted {
		t.Fatal("30 sessions in 512 addresses should not exhaust")
	}
	if !res.RepairOK {
		t.Fatal("repair should converge at low occupancy")
	}
}

func TestSteadyStateUpperBoundGentler(t *testing.T) {
	// The Figure-13 upper bound (same source, same TTL replacement) must
	// sustain at least as many sessions as the full-churn variant.
	g := testMbone(t, 400)
	cache := topology.NewReachCache(g)
	mk := func() allocator.Allocator {
		return allocator.NewAdaptive(256, allocator.AdaptiveConfig{GapFraction: 0.2, Name: "AIPR-1"})
	}
	rng := stats.NewRNG(9)
	n := 60
	pChurn := ClashProbability(g, cache, SteadyStateConfig{
		Alloc: mk(), Dist: mcast.DS4(), Sessions: n,
	}, 15, rng.Split())
	pUpper := ClashProbability(g, cache, SteadyStateConfig{
		Alloc: mk(), Dist: mcast.DS4(), Sessions: n, UpperBound: true,
	}, 15, rng.Split())
	if pUpper > pChurn+0.25 {
		t.Fatalf("upper bound (%v) should not clash more than churn (%v)", pUpper, pChurn)
	}
}

// A nil scope cache means a private one, as NewWorldWithCache documents:
// the estimate equals the shared-cache one for the same seed.
// (RunSteadyStateOnce used to build its World by struct literal and
// nil-dereferenced here.)
func TestClashProbabilityNilCacheIsPrivate(t *testing.T) {
	g := testMbone(t, 200)
	cfg := SteadyStateConfig{
		Alloc:    allocator.NewInformedRandom(64),
		Dist:     mcast.DS4(),
		Sessions: 30,
	}
	shared := ClashProbability(g, topology.NewReachCache(g), cfg, 6, stats.NewRNG(4))
	private := ClashProbability(g, nil, cfg, 6, stats.NewRNG(4))
	if private != shared {
		t.Fatalf("nil cache: clash probability %v, shared cache %v", private, shared)
	}
}

func TestRunFig12Shape(t *testing.T) {
	g := testMbone(t, 400)
	pts := RunFig12(Fig12Config{
		Graph:      g,
		SpaceSizes: []uint32{100, 400},
		MakeAlloc: func(size uint32) allocator.Allocator {
			return allocator.NewStaticPartitioned(size, allocator.IPR7Separators())
		},
		Dist: mcast.DS4(),
		Reps: 8,
		Seed: 2,
	})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].MaxAllocs <= pts[0].MaxAllocs {
		t.Fatalf("sustained sessions should grow with space: %+v", pts)
	}
	for _, p := range pts {
		if p.MaxAllocs <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func gridForReqResp(t testing.TB, n int) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateGrid(n, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allNodes(g *topology.Graph) []topology.NodeID {
	out := make([]topology.NodeID, g.NumNodes())
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func TestReqRespStarTinyWindowEveryoneResponds(t *testing.T) {
	// A star with the requester at the hub: no member lies on the path
	// between any two others, so with a near-zero window no response can
	// reach another member in time — everyone responds. This is the
	// Figure-14 analytic upper bound met with equality.
	const n = 60
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		g.MustAddLink(0, topology.NodeID(i), 1, 1, 5)
	}
	r := RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      SharedTree,
		Core:      0,
		Requester: 0,
		Members:   allNodes(g),
		Delay:     clash.NewUniformDelay(0, 0.0001),
	}, stats.NewRNG(3))
	if r.Responses != n-1 {
		t.Fatalf("responses = %d, want %d", r.Responses, n-1)
	}
}

func TestReqRespTinyWindowOnPathSuppressionOnly(t *testing.T) {
	// On a general tree a near-zero window still allows *on-path*
	// suppression (a response from an upstream member travels with the
	// request wavefront) — the "suppression within a bucket" the paper's
	// analytic bound ignores. Responses must stay below the group size but
	// well above the big-window handful.
	g := gridForReqResp(t, 300)
	r := RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      SharedTree,
		Requester: 5,
		Members:   allNodes(g),
		Delay:     clash.NewUniformDelay(0, 0.0001),
	}, stats.NewRNG(3))
	if r.Responses < 25 || r.Responses >= 299 {
		t.Fatalf("responses = %d, want substantial but below 299", r.Responses)
	}
}

func TestReqRespHugeWindowFewRespond(t *testing.T) {
	// With a window much larger than network delays, suppression kicks in
	// and only a handful respond.
	g := gridForReqResp(t, 300)
	r := RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      SharedTree,
		Requester: 5,
		Members:   allNodes(g),
		Delay:     clash.NewUniformDelay(0, 200000),
	}, stats.NewRNG(4))
	if r.Responses < 1 || r.Responses > 15 {
		t.Fatalf("responses = %d, want a handful", r.Responses)
	}
	if r.FirstArrivalAt < r.FirstSendAt {
		t.Fatal("arrival before send")
	}
}

func TestReqRespExponentialBeatsUniform(t *testing.T) {
	// At a mid-sized window the exponential distribution suppresses far
	// better than uniform (Figure 19's message).
	g := gridForReqResp(t, 800)
	run := func(d clash.DelayDist, seed uint64) float64 {
		var s stats.Summary
		rng := stats.NewRNG(seed)
		for i := 0; i < 5; i++ {
			r := RunReqResp(ReqRespConfig{
				Graph:     g,
				Mode:      SharedTree,
				Requester: topology.NodeID(i * 7),
				Members:   allNodes(g),
				Delay:     d,
			}, rng.Split())
			s.Add(float64(r.Responses))
		}
		return s.Mean()
	}
	uni := run(clash.NewUniformDelay(0, 3200), 5)
	exp := run(clash.NewExponentialDelay(0, 3200, 200), 5)
	if exp >= uni {
		t.Fatalf("exponential (%v) should beat uniform (%v)", exp, uni)
	}
	if exp > 12 {
		t.Fatalf("exponential responses %v, want small", exp)
	}
}

func TestReqRespSPTMode(t *testing.T) {
	g := gridForReqResp(t, 300)
	r := RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      ShortestPathTree,
		Requester: 2,
		Members:   allNodes(g),
		Delay:     clash.NewExponentialDelay(0, 3200, 200),
	}, stats.NewRNG(6))
	if r.Responses < 1 {
		t.Fatal("no responses")
	}
	if r.Responses > 20 {
		t.Fatalf("too many responses: %d", r.Responses)
	}
}

func TestReqRespJitterStillWorks(t *testing.T) {
	g := gridForReqResp(t, 300)
	r := RunReqResp(ReqRespConfig{
		Graph:        g,
		Mode:         SharedTree,
		Requester:    2,
		Members:      allNodes(g),
		Delay:        clash.NewExponentialDelay(0, 3200, 200),
		JitterPerHop: 2,
	}, stats.NewRNG(7))
	if r.Responses < 1 {
		t.Fatal("no responses with jitter")
	}
}

func TestReqRespRequesterExcluded(t *testing.T) {
	g := gridForReqResp(t, 50)
	r := RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      SharedTree,
		Requester: 3,
		Members:   []topology.NodeID{3}, // only the requester
		Delay:     clash.NewUniformDelay(0, 100),
	}, stats.NewRNG(8))
	if r.Responses != 0 {
		t.Fatalf("requester answered itself: %+v", r)
	}
}

// chainForReqResp is a path of n routers, node i to i+1, each link metric
// 1 and 1 ms: nodes more than 31 hops apart lie beyond DVMRP infinity.
func chainForReqResp(n int) *topology.Graph {
	g := topology.NewGraph(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddLink(topology.NodeID(v), topology.NodeID(v+1), 1, 1, 1)
	}
	return g
}

// A packet between nodes beyond DVMRP infinity of each other is never
// delivered: a member the request does not reach does not respond, and a
// response that cannot reach a member suppresses nobody.
func TestReqRespUnreachedPairsAreNeverDelivered(t *testing.T) {
	at := func(ms float64) clash.DelayDist { return clash.NewUniformDelay(ms, ms) }

	// From node 0 of a 40-node chain the request reaches nodes 1..31 only.
	// Node 1 answers first (at 1 ms) and suppresses the rest; nodes 32..39
	// never hear the request, so none answers at 0 ms.
	g := chainForReqResp(40)
	r := RunReqResp(ReqRespConfig{Graph: g, Mode: ShortestPathTree, Requester: 0,
		Members: allNodes(g), Delay: at(0)}, stats.NewRNG(1))
	if r.Responses != 1 || r.FirstArrivalAt != 2 || r.MeanResponseRecv != 2 {
		t.Fatalf("request beyond infinity: %+v, want one response arriving at 2 ms", r)
	}

	// From the middle of a 60-node chain both ends hear the request, but
	// they are 59 hops apart: node 0's response (sent at 30 ms) cannot
	// suppress node 59's (sent at 129 ms), and everyone else, answering
	// 10 s late, is suppressed by whichever end reaches it.
	g = chainForReqResp(60)
	r = RunReqResp(ReqRespConfig{Graph: g, Mode: ShortestPathTree, Requester: 30,
		Members: allNodes(g), Delay: at(10000),
		DelayFor: func(n topology.NodeID) clash.DelayDist {
			switch n {
			case 0:
				return at(0)
			case 59:
				return at(100)
			}
			return nil
		}}, stats.NewRNG(1))
	if r.Responses != 2 || r.FirstSendAt != 30 || r.FirstArrivalAt != 60 || r.MeanResponseRecv != 109 {
		t.Fatalf("response beyond infinity: %+v, want two responses arriving at 60 and 158 ms", r)
	}

	// On a shared tree cored at node 0 of a 40-node chain, nodes 32..39 are
	// off the tree: a request from node 1 reaches nodes 0 and 2..31, whose
	// two neighbours of the requester answer at 1 ms; a request from node
	// 35 reaches nobody.
	g = chainForReqResp(40)
	r = RunReqResp(ReqRespConfig{Graph: g, Mode: SharedTree, Requester: 1,
		Members: allNodes(g), Delay: at(0)}, stats.NewRNG(1))
	if r.Responses != 2 || r.FirstArrivalAt != 2 || r.MeanResponseRecv != 2 {
		t.Fatalf("shared tree, requester on it: %+v, want two responses arriving at 2 ms", r)
	}
	r = RunReqResp(ReqRespConfig{Graph: g, Mode: SharedTree, Requester: 35,
		Members: allNodes(g), Delay: at(0)}, stats.NewRNG(1))
	if r.Responses != 0 || r.FirstArrivalAt != -1 {
		t.Fatalf("shared tree, requester off it: %+v, want no response", r)
	}
}

func TestRunFig15Sweep(t *testing.T) {
	pts, err := RunFig15(Fig15Config{
		GroupSizes: []int{200, 400},
		D2Millis:   []float64{800, 51200},
		Mode:       SharedTree,
		Trials:     2,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Larger D2 → fewer responses for the same group size.
	for i := 0; i+1 < len(pts); i += 2 {
		if pts[i+1].MeanResponses > pts[i].MeanResponses {
			t.Fatalf("responses grew with D2: %v then %v", pts[i], pts[i+1])
		}
	}
	for _, p := range pts {
		if p.String() == "" {
			t.Fatal("empty row")
		}
	}
}

func TestTreeModeString(t *testing.T) {
	if SharedTree.String() != "shared" || ShortestPathTree.String() != "spt" {
		t.Fatal("mode names")
	}
}
