package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"sessiondir"
	"sessiondir/internal/clash"
	"sessiondir/internal/des"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// RunResolution measures, through the full agent stack under the DES, the
// third-party defense path of the §3 clash protocol: a session's
// originator crashes, a blinded newcomer squats its address, and a crowd
// of observers must push the squatter off — each delaying its defense per
// the chosen distribution and suppressing on hearing another defense.
// The §3 analysis (Figures 14–19) predicts: uniform delays with a short
// window produce a defense implosion that grows with the observer count,
// while the exponential distribution keeps it near one or two at a modest
// delay cost. This experiment checks that prediction end-to-end.
func RunResolution(w io.Writer, s Scale) error {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 300}, stats.NewRNG(s.Seed))
	if err != nil {
		return err
	}

	dists := []struct {
		name string
		d    clash.DelayDist
	}{
		{"uniform [0,200ms]", clash.NewUniformDelay(0, 200)},
		{"uniform [0,3.2s]", clash.NewUniformDelay(0, 3200)},
		{"exponential [0,3.2s]", clash.NewExponentialDelay(0, 3200, 200)},
	}
	const observers = 12
	trials := s.RRTrials * 3
	if trials < 3 {
		trials = 3
	}

	fmt.Fprintln(w, "# third-party defense: crashed originator, squatted address,")
	fmt.Fprintf(w, "# %d observers, 2%% loss — defenses sent and time to resolution\n", observers)
	fmt.Fprintln(w, "# delay distribution      resolved   mean_defenses   mean_time")
	for _, dd := range dists {
		var defenses, resTime stats.Summary
		resolved := 0
		for trial := 0; trial < trials; trial++ {
			engine := des.NewEngine(time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC))
			net, err := des.NewNet(engine, des.NetConfig{
				Graph:   g,
				Profile: fault.Profile{Loss: 0.02},
				Seed:    s.Seed + uint64(trial)*31,
			})
			if err != nil {
				return err
			}
			rng := stats.NewRNG(s.Seed + uint64(trial)*7)
			perm := rng.Perm(g.NumNodes())
			nodes := make([]topology.NodeID, observers+1)
			for i := range nodes {
				nodes[i] = topology.NodeID(perm[i])
			}
			defenseCount := 0
			fleet, err := des.NewFleet(engine, net, des.FleetConfig{
				Nodes: nodes, // index 0: the doomed originator
				Space: 2,
				Delay: dd.d,
				Seed:  s.Seed + uint64(trial)*17,
				OnEvent: func(_ int, e sessiondir.Event) {
					if e.Kind == sessiondir.EventDefendedOther {
						defenseCount++
					}
				},
			})
			if err != nil {
				return err
			}
			mk := func(name string) *session.Description {
				return &session.Description{
					Name:  name,
					TTL:   191,
					Media: []session.Media{{Type: "audio", Port: 1000, Proto: "RTP/AVP", Format: "0"}},
				}
			}
			orphan, err := fleet.Dirs[0].CreateSession(mk("orphan"))
			if err != nil {
				return err
			}
			engine.RunFor(30 * time.Second) // observers learn, then A dies
			fleet.Dirs[0].Close()

			// The squatter arrives blind: a fresh directory with an empty
			// cache on a new node.
			sqEp, err := net.Attach(topology.NodeID(perm[observers+1]))
			if err != nil {
				return err
			}
			squatter, err := sessiondir.New(sessiondir.Config{
				Origin:    netip.AddrFrom4([4]byte{10, 99, byte(trial), 1}),
				Transport: sqEp,
				Space:     mcast.SyntheticSpace(2),
				Clock:     engine.Now,
				Seed:      s.Seed + uint64(trial)*113,
				Delay:     dd.d,
			})
			if err != nil {
				return err
			}
			engine.Every(500*time.Millisecond, func() { squatter.Step(engine.Now()) })
			squatDesc, err := squatter.CreateSession(mk("squatter"))
			if err != nil {
				return err
			}
			if squatDesc.Group != orphan.Group {
				// The blind allocation happened to miss; not a useful trial.
				squatter.Close()
				fleet.Close()
				continue
			}
			squatStart := engine.Now()
			deadline := squatStart.Add(5 * time.Minute)
			for engine.Now().Before(deadline) {
				engine.RunFor(250 * time.Millisecond)
				if squatter.OwnSessions()[0].Group != orphan.Group {
					resolved++
					resTime.Add(engine.Now().Sub(squatStart).Seconds())
					break
				}
			}
			defenses.Add(float64(defenseCount))
			squatter.Close()
			fleet.Close()
		}
		fmt.Fprintf(w, "%-24s %4d/%-4d  %12.1f   %8.2fs\n",
			dd.name, resolved, trials, defenses.Mean(), resTime.Mean())
	}
	fmt.Fprintln(w, "# exponential delays defend with ~1 announcement; short uniform windows implode")
	return nil
}
