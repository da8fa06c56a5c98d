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

// TestWorldIndexMatchesScan drives a world through a seeded mix of Add,
// RemoveAt (the last slot and classes emptied included) and SetAddr, and
// after every op checks its indexed answers against a scan of the same
// sessions: the order and contents of the session list, VisibleAt as a
// multiset at sampled observers, Clashes at sampled probes, and whether
// clashIndex finds a clash for every session. A small address space keeps
// the address chains several long.
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
			last := len(o.sessions) - 1
			o.sessions[i] = o.sessions[last]
			o.sessions = o.sessions[:last]
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

		if w.Len() != len(o.sessions) {
			t.Fatalf("op %d: Len %d, scan holds %d", op, w.Len(), len(o.sessions))
		}
		for i, want := range o.sessions {
			if got := w.At(i); got.Origin != want.Origin || got.TTL != want.TTL || got.Addr != want.Addr {
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
	if removedLast == 0 || emptiedClass == 0 || moved == 0 {
		t.Fatalf("mix missed a case: %d last-slot removals, %d classes emptied, %d moves", removedLast, emptiedClass, moved)
	}
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
