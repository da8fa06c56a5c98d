package des

import (
	"context"
	"testing"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
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
	dst.Subscribe(func(ms []transport.Message) { got += len(ms) })

	// Partition: nodes 0-1 vs 2-3.
	net.SetLinkFilter(Partition(func(n topology.NodeID) bool { return n < 2 }))
	src.SendBatch(context.Background(), oneDgram([]byte("blocked"), 255)) //nolint:errcheck
	e.RunFor(time.Second)
	if got != 0 {
		t.Fatal("partitioned packet delivered")
	}
	// Heal.
	net.SetLinkFilter(nil)
	src.SendBatch(context.Background(), oneDgram([]byte("ok"), 255)) //nolint:errcheck
	e.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("healed deliveries = %d", got)
	}
}

// TestNetPartitionGroupsAndHeal: a fault.Groups partition delivers only
// within a group, cuts a node named in no group off entirely, and is
// repaired by removing the filter.
func TestNetPartitionGroupsAndHeal(t *testing.T) {
	e := NewEngine(simStart())
	net, err := NewNet(e, NetConfig{Graph: lineTopo(t, 3), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var eps [3]*Endpoint
	var got [3]int
	for i := range eps {
		if eps[i], err = net.Attach(topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
		eps[i].Subscribe(func(ms []transport.Message) { got[i] += len(ms) })
	}
	send := func(from int) {
		t.Helper()
		if err := eps[from].SendBatch(context.Background(), oneDgram([]byte("x"), 255)); err != nil {
			t.Fatal(err)
		}
		e.RunFor(time.Second)
	}

	// {0,1} | {2}: 0→1 delivered, 0→2 and 2→anyone severed.
	net.SetLinkFilter(PartitionGroups(fault.Partition([]int{0, 1}, []int{2})))
	send(0)
	send(2)
	if got != [3]int{0, 1, 0} {
		t.Fatalf("partitioned delivery: %v", got)
	}
	// A node in no group is cut off entirely.
	net.SetLinkFilter(PartitionGroups(fault.Partition([]int{0, 2})))
	send(0)
	send(1)
	if got != [3]int{0, 1, 1} {
		t.Fatalf("unlisted node not isolated: %v", got)
	}
	// Severed packets draw no fate: a partition never shifts a schedule.
	if st := eps[1].Stats(); st.Packets != 1 {
		t.Fatalf("severed packets were offered to the fault process: %+v", st)
	}
	// Heal restores full connectivity.
	net.SetLinkFilter(nil)
	send(0)
	if got != [3]int{0, 2, 2} {
		t.Fatalf("heal did not restore delivery: %v", got)
	}
}

// TestNetPartitionComposesWithScope: inside one group TTL scoping still
// applies — both the partition and the scope must admit a packet.
func TestNetPartitionComposesWithScope(t *testing.T) {
	e := NewEngine(simStart())
	net, err := NewNet(e, NetConfig{Graph: lineTopo(t, 4), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Attach(0)
	dst, _ := net.Attach(3)
	got := 0
	dst.Subscribe(func(ms []transport.Message) { got += len(ms) })
	net.SetLinkFilter(PartitionGroups(fault.Partition([]int{0, 3})))
	for _, ttl := range []mcast.TTL{2, 255} { // node 3 is three hops out
		if err := src.SendBatch(context.Background(), oneDgram([]byte("x"), ttl)); err != nil {
			t.Fatal(err)
		}
	}
	e.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("scope not applied inside the partition: %d delivered, want 1", got)
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
