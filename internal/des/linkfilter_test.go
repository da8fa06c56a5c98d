package des

import (
	"testing"
	"time"

	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

func TestLinkFilterBlocksAndHeals(t *testing.T) {
	e := NewEngine(simStart())
	g := lineTopo(t, 4)
	net, err := NewNet(e, NetConfig{Graph: g, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Attach(0)
	dst, _ := net.Attach(3)
	got := 0
	dst.Subscribe(func(transport.Message) { got++ })

	// Partition: nodes 0-1 vs 2-3.
	net.SetLinkFilter(Partition(func(n topology.NodeID) bool { return n < 2 }))
	src.Send(nil, []byte("blocked"), 255) //nolint:errcheck
	e.RunFor(time.Second)
	if got != 0 {
		t.Fatal("partitioned packet delivered")
	}
	// Heal.
	net.SetLinkFilter(nil)
	src.Send(nil, []byte("ok"), 255) //nolint:errcheck
	e.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("healed deliveries = %d", got)
	}
}

// TestFleetPartitionHealEndToEnd scripts the paper's motivating failure
// (a transatlantic partition) through the production stack using the
// link-filter API rather than construction tricks: two agents allocate
// the same address while split; the protocol untangles them after the
// heal.
func TestFleetPartitionHealEndToEnd(t *testing.T) {
	engine := NewEngine(simStart())
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 300}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet(engine, NetConfig{Graph: g, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	uk := topology.NodesInCountry(g, "UK")
	us := topology.NodesInCountry(g, "US")
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: []topology.NodeID{uk[0], us[0]},
		Space: 2,
		Seed:  11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Split Europe from the world.
	isEurope := func(n topology.NodeID) bool { return g.Nodes[n].Continent == "Europe" }
	net.SetLinkFilter(Partition(isEurope))

	if _, err := fleet.Dirs[0].CreateSession(testDesc("eu", 191)); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(time.Minute)
	if _, err := fleet.Dirs[1].CreateSession(testDesc("us", 191)); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(time.Minute)
	g0 := fleet.Dirs[0].OwnSessions()[0].Group
	g1 := fleet.Dirs[1].OwnSessions()[0].Group
	if g0 != g1 {
		t.Fatalf("test setup: expected a latent clash, got %s vs %s", g0, g1)
	}

	// Heal; within a couple of steady-state intervals the clash resolves.
	net.SetLinkFilter(nil)
	engine.RunFor(10 * time.Minute)
	g0 = fleet.Dirs[0].OwnSessions()[0].Group
	g1 = fleet.Dirs[1].OwnSessions()[0].Group
	if g0 == g1 {
		t.Fatalf("clash unresolved after heal: both on %s", g0)
	}
}
