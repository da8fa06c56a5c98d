package sim

import (
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func TestZonesFromCountries(t *testing.T) {
	g := testMbone(t, 400)
	zones, err := topology.ZonesFromCountries(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) < 5 {
		t.Fatalf("only %d zones", len(zones))
	}
	// Zones partition the labelled nodes: disjoint and covering.
	covered := 0
	for i, z := range zones {
		covered += z.Size()
		for j := i + 1; j < len(zones); j++ {
			if z.Members().Intersects(zones[j].Members()) {
				t.Fatalf("zones %s and %s overlap", z.Name, zones[j].Name)
			}
		}
	}
	if covered != g.NumNodes() {
		t.Fatalf("zones cover %d of %d nodes", covered, g.NumNodes())
	}
}

func TestAdminZoneValidation(t *testing.T) {
	g := testMbone(t, 400)
	if _, err := topology.NewAdminZone("", g, []topology.NodeID{0}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := topology.NewAdminZone("z", g, nil); err == nil {
		t.Fatal("empty zone accepted")
	}
	if _, err := topology.NewAdminZone("z", g, []topology.NodeID{topology.NodeID(g.NumNodes())}); err == nil {
		t.Fatal("out-of-graph member accepted")
	}
}

// TestAdminScopingMakesIREasy asserts the paper's §1 observation: with
// administrative scoping's symmetric visibility, plain informed-random
// fills every zone completely with zero clashes — the hard problem the
// rest of the paper solves only exists under TTL scoping.
func TestAdminScopingMakesIREasy(t *testing.T) {
	g := testMbone(t, 400)
	zones, err := topology.ZonesFromCountries(g)
	if err != nil {
		t.Fatal(err)
	}
	const space = 64
	res := FillAdminZones(zones, func() allocator.Allocator {
		return allocator.NewInformedRandom(space)
	}, 100000, stats.NewRNG(31))
	if res.Clashes != 0 {
		t.Fatalf("IR clashed %d times under admin scoping", res.Clashes)
	}
	// Every zone fills its whole space: total = zones × space.
	want := len(zones) * space
	if res.Allocations != want {
		t.Fatalf("allocated %d, want %d (every zone full)", res.Allocations, want)
	}
	if res.ZonesFull != len(zones) {
		t.Fatalf("zones full = %d of %d", res.ZonesFull, len(zones))
	}
}

// TestAdminVsTTLScoping quantifies the contrast: the same IR allocator
// that is perfect under admin scoping clashes after ~√n under TTL scoping.
func TestAdminVsTTLScoping(t *testing.T) {
	g := testMbone(t, 400)
	const space = 256
	// TTL scoping (Figure 5 machinery).
	w := NewWorld(g)
	ttlRes := FillUntilClash(w, FillConfig{
		Alloc: allocator.NewInformedRandom(space),
		Dist:  mcast.DS4(),
	}, stats.NewRNG(32))
	// Admin scoping.
	zones, err := topology.ZonesFromCountries(g)
	if err != nil {
		t.Fatal(err)
	}
	adminRes := FillAdminZones(zones, func() allocator.Allocator {
		return allocator.NewInformedRandom(space)
	}, 100000, stats.NewRNG(32))

	if adminRes.Clashes != 0 {
		t.Fatalf("admin scoping clashed: %+v", adminRes)
	}
	if ttlRes.SpaceFull {
		t.Fatal("TTL-scoped IR run unexpectedly exhausted the space")
	}
	if adminRes.Allocations < 4*ttlRes.Allocations {
		t.Fatalf("admin scoping (%d clash-free) should dwarf TTL scoping (%d before clash)",
			adminRes.Allocations, ttlRes.Allocations)
	}
}
