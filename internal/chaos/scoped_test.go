package chaos

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// The schedule the flat fabric could not express: TTL scoping decides who
// hears whom, so "converged" is a different set at every agent, and two
// announcers can clash without either hearing the other.

// scopedNodes places 12 agents on the 150-router Mbone: a three-router
// chain inside the US (4–5–6, agents 0–2), two more North American sites,
// five European ones in four countries, and two in Asia-Pacific.
var scopedNodes = []topology.NodeID{4, 5, 6, 20, 51, 60, 61, 75, 101, 108, 114, 126}

// Agents 0 and 2 sit one hop either side of agent 1. At TTL 2 — one hop —
// each reaches agent 1 and not the other: the smallest scope at which two
// announcers share a listener without hearing each other. (The threshold
// scopes of the DS4 mix nest, so no pair of them does this; a hop limit
// does not.)
const (
	blindA, observer, blindB = 0, 1, 2
	blindTTL                 = mcast.TTL(2)
)

type scopedRun struct {
	h     *Harness
	g     *topology.Graph
	reach *topology.ReachCache
}

// visible reports whether agent i is inside the scope of a session
// announced by agent origin at ttl — the same Reach the network applies.
func (r *scopedRun) visible(origin int, ttl mcast.TTL, i int) bool {
	return origin == i || r.reach.Reach(scopedNodes[origin], ttl).Contains(scopedNodes[i])
}

// runScoped is the flagship schedule on the Mbone: two sessions per agent
// with TTLs drawn from DS4, heavy faults, Europe split from the rest of
// the world for two minutes, heal, faults off, quiet tail — plus one
// TTL-2 session each from the two agents that cannot hear each other.
func runScoped(t *testing.T, seed uint64) *scopedRun {
	t.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 150}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Agents: len(scopedNodes),
		Seed:   seed,
		Start:  chaosStart(),
		Graph:  g,
		Nodes:  scopedNodes,
		// The observer's defence carries a blind session one hop past its
		// scope. That copy is never refreshed and must be gone by the end
		// of the run; 450 s still spans the partition for everything that
		// is (steady re-announcement is every 300 s).
		Dir: sessiondir.Config{CacheTimeout: 450 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &scopedRun{h: h, g: g, reach: topology.NewReachCache(g)}
	if r.visible(blindA, blindTTL, blindB) || r.visible(blindB, blindTTL, blindA) ||
		!r.visible(blindA, blindTTL, observer) || !r.visible(blindB, blindTTL, observer) {
		t.Fatal("test setup: the blind pair and its observer are not placed as described")
	}

	mk := func(i int, name string, ttl mcast.TTL) {
		if _, err := h.agents[i].Dir.CreateSession(&session.Description{
			Name:  name,
			TTL:   ttl,
			Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ttls := stats.NewRNG(seed ^ 0x7715)
	for i := range scopedNodes {
		for j := 0; j < 2; j++ {
			mk(i, fmt.Sprintf("scoped-%d-%d", i, j), mcast.DS4().Sample(ttls.IntN))
		}
	}

	var europe, rest []int
	for i, n := range scopedNodes {
		if g.Nodes[n].Continent == "Europe" {
			europe = append(europe, i)
		} else {
			rest = append(rest, i)
		}
	}
	schedule := []Event{
		// The blind pair allocate while the network is still clean: the
		// observer defends once per clash it sees (an unchanged
		// re-announcement does not re-arm it), so whether the pair
		// untangle must not hang on one packet's fate. 8 s covers the
		// 3.2 s suppression delay, a timer tick and the path both ways.
		{At: 2 * time.Second, Do: func(b Backend) {
			mk(blindA, "blind-a", blindTTL)
			mk(blindB, "blind-b", blindTTL)
		}},
		{At: 10 * time.Second, Do: func(b Backend) { b.SetFaults(heavyFaults()) }},
		{At: 60 * time.Second, Do: func(b Backend) { b.Partition(europe, rest) }},
		{At: 180 * time.Second, Do: func(b Backend) { b.Heal() }},
		{At: 240 * time.Second, Do: func(b Backend) { b.SetFaults(fault.Profile{}) }},
	}
	// 1000 s, not the flagship's 600: a corrupted packet that still parses
	// with a flipped version digit outranks the honest announcements until
	// its cache entry times out, and the session is only re-learned from
	// the next steady announcement after that.
	h.Run(schedule, 1000*time.Second)
	return r
}

// ownedBy returns agent i's own sessions.
func ownedBy(h *Harness, i int) []*session.Description { return h.agents[i].Dir.OwnSessions() }

func TestChaosScopedConvergenceOnMbone(t *testing.T) {
	r := runScoped(t, 1998)
	h := r.h
	// The scoped schedule is a pure function of its seed too.
	if again := runDigest(runScoped(t, 1998).h); again != runDigest(h) {
		t.Fatalf("scoped schedule diverged between identical runs: %s vs %s", runDigest(h), again)
	}

	// Scoped convergence: each agent's cache is exactly the sessions
	// whose scope contains it, at the address their owners now announce.
	for i := range scopedNodes {
		var want []string
		for o := range scopedNodes {
			for _, d := range ownedBy(h, o) {
				if r.visible(o, d.TTL, i) {
					want = append(want, d.Key()+" "+d.Group.String())
				}
			}
		}
		sort.Strings(want)
		if got := h.Fingerprint(i); got != strings.Join(want, "\n") {
			t.Errorf("agent %d (node %d, %s) holds:\n%s\nwant exactly the sessions in scope:\n%s",
				i, scopedNodes[i], r.g.Nodes[scopedNodes[i]].Country, got, strings.Join(want, "\n"))
		}
	}

	// No address is shared by two sessions whose announcers hear each
	// other's announcements of them.
	type owned struct {
		agent int
		d     *session.Description
	}
	var all []owned
	for o := range scopedNodes {
		for _, d := range ownedBy(h, o) {
			all = append(all, owned{o, d})
		}
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a.d.Group == b.d.Group && r.visible(a.agent, a.d.TTL, b.agent) && r.visible(b.agent, b.d.TTL, a.agent) {
				t.Errorf("address %s shared by mutually visible sessions %s (agent %d) and %s (agent %d)",
					a.d.Group, a.d.Key(), a.agent, b.d.Key(), b.agent)
			}
		}
	}

	// The blind pair clashed, neither heard the other, and the observer's
	// third-party defence untangled them.
	blind := func(i int) *session.Description {
		for _, d := range ownedBy(h, i) {
			if d.TTL == blindTTL {
				return d
			}
		}
		t.Fatalf("agent %d lost its TTL-%d session", i, blindTTL)
		return nil
	}
	if h.agents[observer].Dir.Metrics().ClashDefensesThird == 0 {
		t.Fatal("the observer never defended: the schedule failed to force the blind clash")
	}
	if a, b := blind(blindA), blind(blindB); a.Group == b.Group {
		t.Fatalf("blind pair still shares %s", a.Group)
	}
	// Quiet-window check, as in TestChaosClashCorrectionTerminates.
	before := h.TotalAddressChanges()
	h.Run(nil, 300*time.Second)
	if after := h.TotalAddressChanges(); after != before {
		t.Fatalf("address changes still occurring after convergence: %d -> %d", before, after)
	}
}
