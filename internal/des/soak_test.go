package des

import (
	"fmt"
	"testing"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// TestFleetSoakChurnUnderLoss is the long-run stability check: a fleet of
// agents continuously creating and withdrawing sessions for two virtual
// hours under 5% loss. At every checkpoint, no two live *own* sessions
// with global scope may share a group address — the protocol must keep the
// allocation consistent through the churn, losses, and clash episodes.
func TestFleetSoakChurnUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	engine := NewEngine(simStart())
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 300}, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet(engine, NetConfig{Graph: g, Profile: fault.Profile{Loss: 0.05}, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	const agents = 6
	fleet, err := NewFleet(engine, net, FleetConfig{
		Nodes: pickNodes(g, agents, 3),
		Space: 64,
		Seed:  79,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	rng := stats.NewRNG(80)
	// Churn driver: every 90 virtual seconds one agent creates a session
	// and one withdraws (if it has any).
	step := 0
	engine.Every(90*time.Second, func() {
		step++
		creator := fleet.Dirs[rng.IntN(agents)]
		if _, err := creator.CreateSession(testDesc(fmt.Sprintf("s%d", step), 191)); err != nil {
			// Space pressure is acceptable; the soak only requires
			// consistency, not unbounded capacity.
			return
		}
		victim := fleet.Dirs[rng.IntN(agents)]
		own := victim.OwnSessions()
		if len(own) > 2 {
			_ = victim.WithdrawSession(own[rng.IntN(len(own))].Key())
		}
	})

	for checkpoint := 0; checkpoint < 8; checkpoint++ {
		engine.RunFor(15 * time.Minute)
		groups := map[string]string{}
		for i, d := range fleet.Dirs {
			for _, s := range d.OwnSessions() {
				g := s.Group.String()
				if owner, dup := groups[g]; dup {
					// A clash may exist transiently; give the protocol one
					// steady-state interval to clear it, then re-check.
					engine.RunFor(6 * time.Minute)
					if stillShared(fleet, g) {
						t.Fatalf("checkpoint %d: %s shared by %s and agent %d, unresolved",
							checkpoint, g, owner, i)
					}
				}
				groups[g] = fmt.Sprintf("agent %d (%s)", i, s.Name)
			}
		}
	}
	// The fleet must have done real work.
	var created uint64
	for _, d := range fleet.Dirs {
		created += d.Metrics().AnnouncementsSent
	}
	if created < 100 {
		t.Fatalf("suspiciously quiet soak: %d announcements", created)
	}
}

func stillShared(f *Fleet, group string) bool {
	count := 0
	for _, d := range f.Dirs {
		for _, s := range d.OwnSessions() {
			if s.Group.String() == group {
				count++
			}
		}
	}
	return count > 1
}
