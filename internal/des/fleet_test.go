package des

import (
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func testDesc(name string, ttl mcast.TTL) *session.Description {
	return &session.Description{
		Name:  name,
		TTL:   ttl,
		Media: []session.Media{{Type: "audio", Port: 30000, Proto: "RTP/AVP", Format: "0"}},
	}
}

func mboneNet(t *testing.T, engine *Engine, loss float64) (*Net, *topology.Graph) {
	t.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 300}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet(engine, NetConfig{Graph: g, Profile: fault.Profile{Loss: loss}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

// pickNodes returns n spread-out node ids.
func pickNodes(g *topology.Graph, n int, seed uint64) []topology.NodeID {
	rng := stats.NewRNG(seed)
	perm := rng.Perm(g.NumNodes())
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(perm[i])
	}
	return out
}

// TestFleetEventualConsistencyUnderLoss is the protocol-level §2.3 check:
// with 20% per-receiver loss, global sessions still become known at every
// directory, because the back-off schedule keeps re-announcing.
func TestFleetEventualConsistencyUnderLoss(t *testing.T) {
	engine := NewEngine(simStart())
	net, g := mboneNet(t, engine, 0.2)
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: pickNodes(g, 8, 1),
		Dir:   sessiondir.Config{Space: mcast.SyntheticSpace(256), Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Every directory announces one global session.
	for i, d := range fleet.Dirs {
		if _, err := d.CreateSession(testDesc("s", 191)); err != nil {
			t.Fatalf("dir %d: %v", i, err)
		}
	}
	// One virtual minute: the 5 s/10 s/20 s back-off retransmissions give
	// each receiver ~5 chances; P(all lost) = 0.2^5 < 0.1%.
	engine.RunFor(time.Minute)

	for i, d := range fleet.Dirs {
		if got := len(d.Sessions()); got != len(fleet.Dirs) {
			t.Fatalf("dir %d knows %d/%d sessions after 1 virtual minute",
				i, got, len(fleet.Dirs))
		}
	}
}

// TestFleetScopedVisibility: a site-scoped session is never learned
// outside its scope, however long the run.
func TestFleetScopedVisibility(t *testing.T) {
	engine := NewEngine(simStart())
	net, g := mboneNet(t, engine, 0)
	uk := topology.NodesInCountry(g, "UK")
	us := topology.NodesInCountry(g, "US")
	if len(uk) == 0 || len(us) == 0 {
		t.Fatal("countries missing")
	}
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: []topology.NodeID{uk[0], uk[len(uk)-1], us[0]},
		Dir:   sessiondir.Config{Space: mcast.SyntheticSpace(128), Seed: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// UK-national session from the first UK directory.
	if _, err := fleet.Dirs[0].CreateSession(testDesc("uk-only", 47)); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(2 * time.Minute)

	if got := len(fleet.Dirs[1].Sessions()); got != 1 {
		t.Fatalf("UK peer knows %d sessions, want 1", got)
	}
	if got := len(fleet.Dirs[2].Sessions()); got != 0 {
		t.Fatalf("US directory learned a UK-national session (%d)", got)
	}
}

// TestFleetClashResolutionUnderLoss drives a real partition-and-heal clash
// through the full stack with packet loss present.
func TestFleetClashResolutionUnderLoss(t *testing.T) {
	engine := NewEngine(simStart())
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 300}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet(engine, NetConfig{Graph: g, Profile: fault.Profile{Loss: 0.05}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Two directories in different countries, tiny space to force a clash.
	uk := topology.NodesInCountry(g, "UK")
	us := topology.NodesInCountry(g, "US")
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: []topology.NodeID{uk[0], us[0]},
		Dir:   sessiondir.Config{Space: mcast.SyntheticSpace(2), Seed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Create the sessions nearly simultaneously: announcements race.
	if _, err := fleet.Dirs[0].CreateSession(testDesc("uk", 191)); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(50 * time.Millisecond) // less than one transatlantic RTT
	if _, err := fleet.Dirs[1].CreateSession(testDesc("us", 191)); err != nil {
		t.Fatal(err)
	}

	engine.RunFor(5 * time.Minute)

	g0 := fleet.Dirs[0].OwnSessions()[0].Group
	g1 := fleet.Dirs[1].OwnSessions()[0].Group
	if g0 == g1 {
		t.Fatalf("clash unresolved after 5 virtual minutes: both on %s", g0)
	}
}

// TestFleetThirdPartyDefenseUnderDES: the crashed-originator scenario at
// the packet level.
func TestFleetThirdPartyDefenseUnderDES(t *testing.T) {
	engine := NewEngine(simStart())
	net, g := mboneNet(t, engine, 0)
	nodes := pickNodes(g, 3, 2)
	var moved int
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: nodes,
		Dir:   sessiondir.Config{Space: mcast.SyntheticSpace(2), Seed: 13},
		OnEvent: func(idx int, e sessiondir.Event) {
			if e.Kind == sessiondir.EventAddressChanged {
				moved++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Directory 0 announces, everyone learns it, then 0 crashes.
	if _, err := fleet.Dirs[0].CreateSession(testDesc("orphan", 191)); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(10 * time.Second)
	if len(fleet.Dirs[2].Sessions()) != 1 {
		t.Fatal("observer missed the session")
	}
	fleet.Dirs[0].Close()

	// Directory 1 "forgets" (fresh cache in reality; here its allocator
	// view still knows, so force the clash by creating enough sessions to
	// fill the 2-address space past the orphan's slot).
	d1 := fleet.Dirs[1]
	if _, err := d1.CreateSession(testDesc("one", 191)); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.CreateSession(testDesc("two", 191)); err == nil {
		// Allocation may fail (space visibly full) — acceptable either way;
		// if it succeeded it squatted the orphan's address.
		_ = err
	}
	engine.RunFor(5 * time.Minute)

	// Either directory 1 was pushed off the orphan's address by the third
	// party's defense (moved > 0), or it never squatted. In both cases the
	// orphan's address must now be unique among live own-sessions.
	groups := map[string]int{}
	for _, d := range fleet.Dirs[1:] {
		for _, s := range d.OwnSessions() {
			groups[s.Group.String()]++
		}
	}
	for g, n := range groups {
		if n > 1 {
			t.Fatalf("address %s still shared by %d sessions", g, n)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	engine := NewEngine(simStart())
	net, _ := mboneNet(t, engine, 0)
	if _, err := NewFleet(engine, net, FleetConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// TestFleetFreezeAndRestart: a frozen directory neither steps nor hears,
// so an announcement made while it is frozen reaches it only from a
// re-announcement after Thaw; a killed directory restarts as a new one at
// the same node and origin, which the timer steps then drive.
func TestFleetFreezeAndRestart(t *testing.T) {
	engine := NewEngine(simStart())
	net, g := mboneNet(t, engine, 0)
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: pickNodes(g, 2, 1),
		Dir:   sessiondir.Config{Space: mcast.SyntheticSpace(256), Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	fleet.Freeze(1)
	if _, err := fleet.Dirs[0].CreateSession(testDesc("s", 191)); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(4 * time.Second) // the first re-announcement is due at 5 s
	if n := len(fleet.Dirs[1].Sessions()); n != 0 {
		t.Fatalf("frozen directory heard %d sessions", n)
	}
	fleet.Thaw(1)
	engine.RunFor(2 * time.Second)
	if n := len(fleet.Dirs[1].Sessions()); n != 1 {
		t.Fatalf("thawed directory knows %d sessions, want the re-announced one", n)
	}

	before, err := fleet.Dirs[1].CreateSession(testDesc("before", 191))
	if err != nil {
		t.Fatal(err)
	}
	engine.RunFor(time.Second)
	fleet.Kill(1)
	if err := fleet.Restart(1, 77); err != nil {
		t.Fatal(err)
	}
	again, err := fleet.Dirs[1].CreateSession(testDesc("again", 191))
	if err != nil {
		t.Fatal(err)
	}
	if again.Origin != before.Origin {
		t.Fatalf("restarted directory announces from %s, its predecessor from %s", again.Origin, before.Origin)
	}
	engine.RunFor(time.Minute)
	if n := len(fleet.Dirs[0].Sessions()); n != 3 {
		t.Fatalf("directory 0 knows %d sessions, want its own and both incarnations'", n)
	}
}
