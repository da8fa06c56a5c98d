package sim

import (
	"slices"
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// scanWorld is the index's oracle: the session list in World's order, with
// every question answered by reading all of it.
type scanWorld struct {
	cache    *topology.ReachCache
	sessions []Session
}

func (o *scanWorld) reach(s Session) *topology.NodeSet { return o.cache.Reach(s.Origin, s.TTL) }

func (o *scanWorld) visibleAt(observer topology.NodeID) []allocator.SessionInfo {
	var out []allocator.SessionInfo
	for _, s := range o.sessions {
		if o.reach(s).Contains(observer) {
			out = append(out, allocator.SessionInfo{Addr: s.Addr, TTL: s.TTL})
		}
	}
	return out
}

func (o *scanWorld) clashes(origin topology.NodeID, ttl mcast.TTL, addr mcast.Addr) bool {
	reach := o.cache.Reach(origin, ttl)
	for _, s := range o.sessions {
		if s.Addr == addr && o.reach(s).Intersects(reach) {
			return true
		}
	}
	return false
}

func (o *scanWorld) clashesWith(i int) bool {
	for j, s := range o.sessions {
		if j != i && s.Addr == o.sessions[i].Addr && o.reach(s).Intersects(o.reach(o.sessions[i])) {
			return true
		}
	}
	return false
}

func sortedView(v []allocator.SessionInfo) []allocator.SessionInfo {
	v = slices.Clone(v)
	slices.SortFunc(v, func(a, b allocator.SessionInfo) int {
		if a.Addr != b.Addr {
			return int(a.Addr) - int(b.Addr)
		}
		return int(a.TTL) - int(b.TTL)
	})
	return v
}

// removeAt is RemoveAt's swap-with-last on the scan's list.
func (o *scanWorld) removeAt(i int) {
	last := len(o.sessions) - 1
	o.sessions[i] = o.sessions[last]
	o.sessions = o.sessions[:last]
}

// checkScan fails the test unless w answers as the scan of o's sessions
// does after op: the order and contents of the session list, whether
// clashIndex finds a clash for every session, VisibleAt as a multiset at
// four sampled observers and Clashes at four sampled probes.
func checkScan(t *testing.T, op int, w *World, o *scanWorld, rng *stats.RNG, space int) {
	t.Helper()
	n, dist := w.Graph.NumNodes(), mcast.DS4()
	if w.Len() != len(o.sessions) {
		t.Fatalf("op %d: Len %d, scan holds %d", op, w.Len(), len(o.sessions))
	}
	for i, want := range o.sessions {
		if got := w.At(i); got != want {
			t.Fatalf("op %d: At(%d) = %+v, scan has %+v", op, i, got, want)
		}
		if got := w.clashIndex(i) >= 0; got != o.clashesWith(i) {
			t.Fatalf("op %d: clashIndex(%d) finds a clash: %v, scan: %v", op, i, got, !got)
		}
	}
	for k := 0; k < 4; k++ {
		obs := topology.NodeID(rng.IntN(n))
		if got, want := sortedView(w.VisibleAt(obs)), sortedView(o.visibleAt(obs)); !slices.Equal(got, want) {
			t.Fatalf("op %d: VisibleAt(%d) = %v, scan %v", op, obs, got, want)
		}
		origin, ttl, addr := topology.NodeID(rng.IntN(n)), dist.Sample(rng.IntN), mcast.Addr(rng.IntN(space+2))
		if got, want := w.Clashes(origin, ttl, addr), o.clashes(origin, ttl, addr); got != want {
			t.Fatalf("op %d: Clashes(%d, %d, %d) = %v, scan %v", op, origin, ttl, addr, got, want)
		}
	}
}

// TestWorldIndexMatchesScan drives a world through a seeded mix of Add,
// RemoveAt (the last slot and classes emptied included) and SetAddr, and
// after every op checks its indexed answers against a scan of the same
// sessions (checkScan). A small address space keeps the address chains
// several long.
func TestWorldIndexMatchesScan(t *testing.T) {
	g := testMbone(t, 400)
	cache := topology.NewReachCache(g)
	w := NewWorldWithCache(g, cache)
	o := &scanWorld{cache: cache}
	dist := mcast.DS4()
	rng := stats.NewRNG(29)
	n := g.NumNodes()
	const space = 48
	var removedLast, emptiedClass, moved int
	for op := 0; op < 3000; op++ {
		// Grow towards 150 sessions for 400 ops, then drain for 200: the
		// world empties completely each cycle.
		growing := op%600 < 400
		switch r := rng.IntN(10); {
		case w.Len() > 0 && (r < 3 || !growing && r < 8):
			i := rng.IntN(w.Len())
			if rng.IntN(4) == 0 {
				i = w.Len() - 1
			}
			if i == w.Len()-1 {
				removedLast++
			}
			gone := o.sessions[i]
			o.removeAt(i)
			if !slices.ContainsFunc(o.sessions, func(s Session) bool { return o.reach(s) == o.reach(gone) }) {
				emptiedClass++
			}
			w.RemoveAt(i)
		case w.Len() > 0 && r < 5:
			i, addr := rng.IntN(w.Len()), mcast.Addr(rng.IntN(space))
			o.sessions[i].Addr = addr
			w.SetAddr(i, addr)
			moved++
		default:
			s := Session{Origin: topology.NodeID(rng.IntN(n)), TTL: dist.Sample(rng.IntN), Addr: mcast.Addr(rng.IntN(space))}
			o.sessions = append(o.sessions, s)
			w.Add(s.Origin, s.TTL, s.Addr)
		}
		checkScan(t, op, w, o, rng, space)
	}
	if removedLast == 0 || emptiedClass == 0 || moved == 0 {
		t.Fatalf("mix missed a case: %d last-slot removals, %d classes emptied, %d moves", removedLast, emptiedClass, moved)
	}
}

// TestWorldChunksMatchScan places every session at one of six (origin,
// TTL) sites, so at most six scope classes hold them all and classes run
// to several chunks, and drives the world through cycles of growth and
// drain, checking it against the scan after every op (checkScan). The mix
// must make class sizes cross multiples of chunkLen upwards and
// downwards, take a recycled head chunk off the free list, and remove a
// class's tail member, once also when it is the world's last session.
// Then a world drained to empty and refilled with the same sessions must
// take no new chunk.
func TestWorldChunksMatchScan(t *testing.T) {
	g := testMbone(t, 400)
	cache := topology.NewReachCache(g)
	w := NewWorldWithCache(g, cache)
	o := &scanWorld{cache: cache}
	dist := mcast.DS4()
	rng := stats.NewRNG(31)
	const space = 64
	type site struct {
		origin topology.NodeID
		ttl    mcast.TTL
	}
	sites := make([]site, 6)
	for i := range sites {
		sites[i] = site{topology.NodeID(rng.IntN(g.NumNodes())), dist.Sample(rng.IntN)}
	}
	add := func() {
		s := sites[rng.IntN(len(sites))]
		o.sessions = append(o.sessions, Session{Origin: s.origin, Addr: mcast.Addr(rng.IntN(space)), TTL: s.ttl})
		w.Add(s.origin, s.ttl, o.sessions[len(o.sessions)-1].Addr)
	}
	// tailOf returns the session in the last slot of session j's class.
	tailOf := func(j int) int {
		c := &w.classes[w.sessions[j].class]
		ch, k := w.slot(c.head*chunkLen + (c.n-1)%chunkLen)
		return int(ch.owner[k])
	}
	var up, down, reused, tails, lastTails int
	for op := 0; op < 2400; op++ {
		// Grow towards 200 sessions for 500 ops, then drain for 300: the
		// world empties completely each cycle.
		growing := op%800 < 500
		switch r := rng.IntN(10); {
		case w.Len() > 0 && (r < 3 || !growing && r < 9):
			i := rng.IntN(w.Len())
			switch rng.IntN(4) {
			case 0:
				i = w.Len() - 1
			case 1:
				i = tailOf(i)
			}
			class := w.sessions[i].class
			if i == tailOf(i) {
				tails++
				if i == w.Len()-1 {
					lastTails++
				}
			}
			o.removeAt(i)
			w.RemoveAt(i)
			if c := w.classes[class]; c.n > 0 && c.n%chunkLen == 0 {
				down++
			}
		case w.Len() > 0 && r < 4:
			i, addr := rng.IntN(w.Len()), mcast.Addr(rng.IntN(space))
			o.sessions[i].Addr = addr
			w.SetAddr(i, addr)
		default:
			free := w.free
			add()
			if c := w.classes[w.sessions[w.Len()-1].class]; c.n > 1 && c.n%chunkLen == 1 {
				up++
			}
			if free != none && w.free != free {
				reused++
			}
		}
		checkScan(t, op, w, o, rng, space)
	}

	for w.Len() < 200 {
		add()
	}
	kept, carved := slices.Clone(o.sessions), w.carved
	for w.Len() > 0 {
		i := rng.IntN(w.Len())
		o.removeAt(i)
		w.RemoveAt(i)
	}
	for _, s := range kept {
		o.sessions = append(o.sessions, s)
		w.Add(s.Origin, s.TTL, s.Addr)
	}
	checkScan(t, -1, w, o, rng, space)
	if w.carved != carved {
		t.Fatalf("draining and refilling %d sessions carved %d new chunks, want 0 (every one on the free list)", len(kept), w.carved-carved)
	}
	if up == 0 || down == 0 || reused == 0 || tails == 0 || lastTails == 0 {
		t.Fatalf("mix missed a case: %d classes grew past a chunk, %d shrank to a chunk boundary, %d free chunks reused, %d tail removals, %d of them the last session",
			up, down, reused, tails, lastTails)
	}
	t.Logf("%d classes grew past a chunk, %d shrank to a chunk boundary, %d free chunks reused, %d tail removals (%d the last session)",
		up, down, reused, tails, lastTails)
}

// TestWorldPlacementAllocatesNothing: over a warmed cache, the four calls
// of a churn placement make no allocation once the world has its size.
func TestWorldPlacementAllocatesNothing(t *testing.T) {
	g := testMbone(t, 400)
	cache := topology.NewReachCache(g)
	dist := mcast.DS4()
	for node := 0; node < g.NumNodes(); node++ {
		for _, ttl := range dist.Support() {
			cache.Reach(topology.NodeID(node), ttl)
		}
	}
	w := NewWorldWithCache(g, cache)
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		w.Add(topology.NodeID(rng.IntN(g.NumNodes())), dist.Sample(rng.IntN), mcast.Addr(rng.IntN(4096)))
	}
	for node := 0; node < g.NumNodes(); node++ {
		w.VisibleAt(topology.NodeID(node)) // the scratch view at its widest
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k = (k*7 + 13) % w.Len()
		s := w.At(k)
		w.VisibleAt(s.Origin)
		w.Clashes(s.Origin, s.TTL, s.Addr)
		w.RemoveAt(k)
		w.Add(s.Origin, s.TTL, s.Addr) // the same session back: no view grows
	})
	if allocs != 0 {
		t.Fatalf("a placement allocates %v times, want 0", allocs)
	}
}
